package counters

import (
	"testing"
	"testing/quick"
)

func TestRegisterAndDirectAdd(t *testing.T) {
	g := NewGlobal()
	free := g.Register("aggr.free")
	used := g.Register("aggr.used")
	g.Add(free, 100)
	g.Add(used, -3)
	if g.Get(free) != 100 || g.Get(used) != -3 {
		t.Fatalf("free=%d used=%d", g.Get(free), g.Get(used))
	}
	if g.Name(free) != "aggr.free" {
		t.Fatal("name lost")
	}
	if g.DirectAdds != 2 {
		t.Fatalf("direct adds = %d", g.DirectAdds)
	}
}

func TestTokenStagesWithoutGlobalEffect(t *testing.T) {
	g := NewGlobal()
	free := g.Register("free")
	tok := g.NewToken()
	tok.Add(free, -5)
	tok.Add(free, -5)
	if g.Get(free) != 0 {
		t.Fatal("staged updates must not touch globals")
	}
	if tok.Staged() != 2 || tok.deltas[free] != -10 {
		t.Fatalf("staged=%d pending=%d", tok.Staged(), tok.deltas[free])
	}
	tok.Flush()
	if g.Get(free) != -10 {
		t.Fatalf("after flush = %d", g.Get(free))
	}
	if tok.Staged() != 0 || tok.deltas[free] != 0 {
		t.Fatal("token not reset by flush")
	}
	if g.Flushes != 1 {
		t.Fatalf("flushes = %d", g.Flushes)
	}
}

func TestLateRegisteredCounter(t *testing.T) {
	g := NewGlobal()
	a := g.Register("a")
	tok := g.NewToken()
	tok.Add(a, 1)
	b := g.Register("b") // registered after token creation
	tok.Add(b, 7)
	tok.Flush()
	if g.Get(a) != 1 || g.Get(b) != 7 {
		t.Fatalf("a=%d b=%d", g.Get(a), g.Get(b))
	}
}

func TestPropertyTokensConverge(t *testing.T) {
	// Property: any interleaving of staged updates across tokens equals
	// the direct sum once all tokens flush (loose accounting converges).
	fn := func(deltas []int16, split uint8) bool {
		g := NewGlobal()
		id := g.Register("x")
		toks := []*Token{g.NewToken(), g.NewToken(), g.NewToken()}
		var want int64
		for i, d := range deltas {
			want += int64(d)
			toks[(int(split)+i)%3].Add(id, int64(d))
		}
		mid := g.Get(id) // mid-flight value may deviate — that's the point
		_ = mid
		for _, tok := range toks {
			tok.Flush()
		}
		return g.Get(id) == want
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeviationVisibleBeforeFlush(t *testing.T) {
	g := NewGlobal()
	id := g.Register("free")
	g.Add(id, 1000)
	tok := g.NewToken()
	tok.Add(id, -999)
	if g.Get(id) != 1000 {
		t.Fatal("global must lag the logical value until flush")
	}
	tok.Flush()
	if g.Get(id) != 1 {
		t.Fatal("flush must reconcile")
	}
}

func TestString(t *testing.T) {
	g := NewGlobal()
	a := g.Register("a")
	g.Register("b")
	g.Add(a, 2)
	if s := g.String(); s != "a=2 b=0" {
		t.Fatalf("String = %q", s)
	}
}
