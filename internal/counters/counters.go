// Package counters implements the "loose accounting" scheme of paper
// §III-C: cleaner threads stage frequent counter updates (free-block
// counts, per-volume and per-aggregate statistics) in a thread-local token
// instead of synchronizing on the global counters for every block, and the
// token is later applied to the globals in one batched flush from within
// Waffinity. The globals therefore deviate from their instantaneous logical
// values between flushes — readers that need exact values must reconcile,
// which tests here demonstrate.
//
// The design is the same idea as per-core "sloppy counters" (Boyd-Wickizer
// et al., OSDI'10), which the paper notes as concurrent related work.
package counters

import "fmt"

// ID names a registered global counter.
type ID int

// Global is a set of named counters shared by the whole system.
type Global struct {
	names []string
	vals  []int64

	// Flushes counts token batches applied; DirectAdds counts
	// non-batched updates (the contended path loose accounting avoids).
	Flushes    uint64
	DirectAdds uint64
}

// NewGlobal returns an empty counter set.
func NewGlobal() *Global { return &Global{} }

// Register adds a counter and returns its ID.
func (g *Global) Register(name string) ID {
	g.names = append(g.names, name)
	g.vals = append(g.vals, 0)
	return ID(len(g.vals) - 1)
}

// Name returns the counter's registered name.
func (g *Global) Name(id ID) string { return g.names[id] }

// Get returns the counter's current (loosely accounted) value.
func (g *Global) Get(id ID) int64 { return g.vals[id] }

// Add applies a delta directly — the tightly synchronized path that loose
// accounting exists to avoid on hot paths.
func (g *Global) Add(id ID, delta int64) {
	g.vals[id] += delta
	g.DirectAdds++
}

// Token is a thread-local staging area for counter deltas.
type Token struct {
	g      *Global
	deltas []int64
	staged uint64 // number of staged updates since last flush
}

// NewToken creates a token against g.
func (g *Global) NewToken() *Token {
	return &Token{g: g, deltas: make([]int64, len(g.vals))}
}

// Add stages a delta locally; no shared state is touched.
func (t *Token) Add(id ID, delta int64) {
	if int(id) >= len(t.deltas) {
		// Counters registered after the token was created.
		grown := make([]int64, len(t.g.vals))
		copy(grown, t.deltas)
		t.deltas = grown
	}
	t.deltas[id] += delta
	t.staged++
}

// Staged returns the number of updates staged since the last flush.
func (t *Token) Staged() uint64 { return t.staged }

// Flush applies all staged deltas to the globals in one batch and resets
// the token. In the full system this runs inside a Waffinity message, so it
// needs no locking of its own.
func (t *Token) Flush() {
	for id, d := range t.deltas {
		if d != 0 {
			t.g.vals[id] += d
			t.deltas[id] = 0
		}
	}
	t.staged = 0
	t.g.Flushes++
}

// String renders the counter set for diagnostics.
func (g *Global) String() string {
	s := ""
	for i, n := range g.names {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", n, g.vals[i])
	}
	return s
}
