GO ?= go

.PHONY: all build test vet race racecp bench benchsmoke crashcheck affcheck clustercheck overloadcheck clonecheck ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# racecp is the focused race gate: the smoke tests plus the parallel-CP
# regression and determinism tests, and the whole of the simulation kernel
# and Waffinity (event-order goldens included). The execution token passes
# from thread goroutine to thread goroutine, so the race detector is the
# cheapest proof that every hand-off still carries a happens-before edge.
racecp:
	$(GO) test -race ./... -run 'TestSmoke|TestParallelCP'
	$(GO) test -race -count=1 ./internal/sim ./internal/waffinity

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .
	$(GO) run ./cmd/waflbench -exp agedvol -benchjson BENCH_PR4.json
	$(GO) run ./cmd/waflbench -exp parallelcp -benchjson BENCH_PR5.json
	$(GO) run ./cmd/waflbench -exp flexgroup -members 4 -benchjson BENCH_PR6.json
	$(GO) run ./cmd/waflbench -exp overload -benchjson BENCH_PR7.json
	$(GO) run ./cmd/waflbench -exp clonefleet -benchjson BENCH_PR8.json

# benchsmoke runs every package benchmark under internal/ for one iteration,
# so a benchmark that no longer builds or panics fails the gate. The numbers
# it prints mean nothing; see the files' own comments for measuring.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# crashcheck runs the bounded crash-schedule fault-injection sweep: crash at
# dozens of reproducible points (event indices + CP phase boundaries),
# recover, fsck, and verify every acknowledged op — twice, via double crash.
crashcheck:
	$(GO) run ./cmd/waflbench -crashsweep -crashpoints 8 -crashseeds 1,2 -crashphases 9

# affcheck enforces the single-point member resolution rule: among the
# facade sources, only member.go may index the Waffinity hierarchy's
# aggregate array directly — everything else routes through the Member
# helpers (volAffs/stripeAff/logicalAff).
affcheck:
	@bad=$$(grep -ln 'Aggrs\[' *.go | grep -v '^member\.go$$' || true); \
	if [ -n "$$bad" ]; then \
		echo "affcheck: direct h.Aggrs[...] access outside member.go:"; \
		grep -n 'Aggrs\[' $$bad; \
		exit 1; \
	fi; \
	echo "affcheck OK: Aggrs[] indexed only in member.go"

# overloadcheck runs the open-loop burst study (admission control off vs
# on) and asserts the SLO contract: without admission the burst drives the
# latency-sensitive p99.9 into open-loop blowup; with admission the
# controller sheds bulk load and the latency-sensitive tail stays bounded.
overloadcheck:
	$(GO) run ./cmd/waflbench -overloadcheck

# clustercheck runs the bounded multi-member crash sweep: one member of a
# two-member cluster is crashed at reproducible event indices while the
# survivor serves traffic, then recovered in place (plus an immediate double
# crash), with per-member fsck and oracle verification.
clustercheck:
	$(GO) run ./cmd/waflbench -clustersweep -crashpoints 6 -crashseeds 1,2

# clonecheck runs the clone/restore crash sweep: the in-repo per-boundary
# crash tests (clone create, clone split, SnapRestore, each crashed at all
# nine CP phase boundaries) plus the harness's scripted clone-ops window
# (snapshot -> clone -> divergence -> split -> restore) crashed at 18
# consecutive boundaries, every leg checked against the clone oracle + fsck.
clonecheck:
	$(GO) test -count=1 -run 'TestClone|TestSnapRestore|TestBCacheRestore' .
	$(GO) run ./cmd/waflbench -clonecheck -clonepoints 18

# ci is the gate run before merging: vet, build, the affinity-access gate,
# the full test suite under the race detector, one iteration of every
# package benchmark, the bounded crash sweeps (whole-node, single-member,
# and clone/restore), and the admission-control SLO check.
ci: vet build affcheck race racecp benchsmoke crashcheck clustercheck clonecheck overloadcheck

clean:
	rm -f wafltop waflbench *.test
