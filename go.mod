module wafl

go 1.23
