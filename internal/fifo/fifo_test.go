package fifo

import "testing"

// TestQueueOrderAndRelease interleaves pushes and pops across several
// compactions: elements come out in push order, and every slot of the backing
// array outside the live window is zeroed, so a popped pointer is never kept
// reachable.
func TestQueueOrderAndRelease(t *testing.T) {
	var q Queue[*int]
	next, want := 0, 0
	push := func() { v := next; next++; q.Push(&v) }
	pop := func() {
		if got := q.Peek(); *got != want {
			t.Fatalf("Peek = %d, want %d", *got, want)
		}
		if got := q.Pop(); *got != want {
			t.Fatalf("Pop = %d, want %d", *got, want)
		}
		want++
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			push()
		}
		for i := 0; i < 5+round%4; i++ {
			if q.Len() > 0 {
				pop()
			}
		}
		if q.Len() != next-want || len(q.All()) != q.Len() {
			t.Fatalf("Len = %d, All = %d, want %d", q.Len(), len(q.All()), next-want)
		}
		buf := q.buf[:cap(q.buf)]
		for i, p := range buf {
			if live := i >= q.head && i < len(q.buf); !live && p != nil {
				t.Fatalf("round %d: dead slot %d (head %d, len %d) still holds %d", round, i, q.head, len(q.buf), *p)
			}
		}
	}
	rest := q.TakeAll()
	if len(rest) != next-want || q.Len() != 0 {
		t.Fatalf("TakeAll returned %d, want %d; Len now %d", len(rest), next-want, q.Len())
	}
	for _, p := range rest {
		if *p != want {
			t.Fatalf("TakeAll out of order: %d, want %d", *p, want)
		}
		want++
	}
	q.Push(rest[0])
	if q.Len() != 1 || &q.buf[0] == &rest[0] {
		t.Fatal("queue still shares storage with the slice TakeAll returned")
	}
}

// TestPoolCounts: Get builds only when nothing is returned and hands returned
// records out oldest first; the counts say what is outstanding, before and
// after a crash abandons it.
func TestPoolCounts(t *testing.T) {
	next := 0
	var st PoolStats
	p := NewPool(&st, func() *int { next++; v := next; return &v })
	a, b := p.Get(), p.Get()
	p.Put(b)
	p.Put(a)
	if got := *p.Get(); got != 2 {
		t.Fatalf("Get = %d, want the oldest returned, 2", got)
	}
	if st.Outstanding() != 1 {
		t.Fatalf("%+v: want 1 outstanding", st)
	}
	p.Get() // the last returned record
	p.Abandon()
	c := p.Get()
	if *c != 3 || st != (PoolStats{New: 3, Taken: 5, Returned: 2, Abandoned: 2}) || st.Outstanding() != 1 {
		t.Fatalf("after a crash and a Get: record %d, stats %+v", *c, st)
	}
}

// TestPoolLimit: a limited pool keeps at most its limit of waiting records,
// the oldest; a Put beyond it still counts as returned, and Get then builds
// new records.
func TestPoolLimit(t *testing.T) {
	var st PoolStats
	made := 0
	p := NewPool(&st, func() *int { made++; return new(int) })
	recs := make([]*int, 5)
	for i := range recs {
		recs[i] = p.Get()
	}
	for _, r := range recs {
		p.Put(r)
	}
	p.Limit(2)
	if got := p.free.Len(); got != 2 || p.Get() != recs[0] || p.Get() != recs[1] {
		t.Fatalf("limit 2 kept %d records, or not the oldest", got)
	}
	third := p.Get() // the pool is empty: a new record
	p.Put(recs[0])
	p.Put(recs[1])
	p.Put(third) // beyond the limit: to the garbage collector
	if p.free.Len() != 2 || st.Returned != 8 || st.Outstanding() != 0 {
		t.Fatalf("%d waiting, stats %+v; want 2 waiting and nothing outstanding", p.free.Len(), st)
	}
	p.Get()
	p.Get()
	if p.Get(); made != 7 {
		t.Fatalf("built %d records, want a new one once the kept ones are taken", made)
	}
}
