package sim

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"testing"
)

// orderProgram is a seeded random program over every kernel primitive, with
// more threads than cores so the ready queue, mutex hand-off, zero-delay
// wake-ups and timed events all interleave. Every step appends
// (now, Events(), thread, step) to a SHA-256, and every decision draws from
// one shared generator in execution order, so any change to the order in
// which the kernel dispatches events changes the digest.
type orderProgram struct {
	s   *Scheduler
	rng *rand.Rand
	log hash.Hash
	mu  [2]*Mutex
	wq  [2]*WaitQueue
}

func newOrderProgram(seed int64) *orderProgram {
	s := New(3, seed)
	p := &orderProgram{s: s, rng: rand.New(rand.NewSource(seed)), log: sha256.New()}
	for i := range p.mu {
		p.mu[i] = NewMutex(s, fmt.Sprintf("m%d", i))
		p.wq[i] = NewWaitQueue(s, fmt.Sprintf("q%d", i))
	}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("t%d", i)
		if i%2 == 0 {
			s.Go(name, CatOther, func(th *Thread) { p.body(th, 200) })
		} else {
			s.GoAt(Time(i)*Time(7*Microsecond), name, CatClient, func(th *Thread) { p.body(th, 200) })
		}
	}
	// A ticker keeps waiters from parking forever and mixes plain callbacks
	// (some zero-delay) between the thread events.
	var tick func()
	ticks := 0
	tick = func() {
		ticks++
		p.note("tick", ticks)
		p.wq[ticks%2].Broadcast()
		if ticks < 400 {
			s.After(Duration(p.rng.Intn(3))*5*Microsecond, tick)
		}
	}
	s.After(3*Microsecond, tick)
	return p
}

func (p *orderProgram) note(who string, step int) {
	fmt.Fprintf(p.log, "%d %d %s %d\n", p.s.Now(), p.s.Events(), who, step)
}

func (p *orderProgram) body(th *Thread, steps int) {
	for j := 0; j < steps; j++ {
		op := p.rng.Intn(10)
		p.note(th.Name(), op)
		switch op {
		case 0, 1:
			th.Consume(Duration(p.rng.Intn(9)+1) * Microsecond)
		case 2:
			th.Sleep(Duration(p.rng.Intn(4)) * Microsecond) // 0 is a zero-delay wake-up
		case 3:
			th.Yield()
		case 4:
			m := p.mu[p.rng.Intn(2)]
			m.Lock(th)
			th.Consume(Duration(p.rng.Intn(3)+1) * Microsecond)
			m.Unlock(th)
		case 5:
			q := p.wq[p.rng.Intn(2)]
			q.Wait(th)
		case 6:
			p.wq[p.rng.Intn(2)].Signal()
		case 7:
			p.wq[p.rng.Intn(2)].Broadcast()
		case 8:
			k := j
			p.s.After(Duration(p.rng.Intn(3))*Microsecond, func() {
				p.note("after:"+th.Name(), k)
				p.wq[k%2].Signal()
			})
		case 9:
			if steps > 10 {
				at := p.s.Now() + Time(p.rng.Intn(3))*Time(Microsecond)
				p.s.GoAt(at, fmt.Sprintf("%s.%d", th.Name(), j), CatCleaner, func(c *Thread) { p.body(c, 6) })
			}
		}
	}
	p.note(th.Name(), -1)
}

func (p *orderProgram) digest() string {
	return fmt.Sprintf("%x now=%d events=%d live=%d", p.log.Sum(nil), p.s.Now(), p.s.Events(), p.s.Live())
}

const orderHorizon = Time(50 * Millisecond)

// The goldens were computed at the parent of the direct-handoff dispatcher
// (scheduler-goroutine kernel, pointer-event heap): the kernel may change how
// it runs the loop, never the order in which events are dispatched.
const (
	goldenOrder     = "73b2fedf9be62015f7a860b066f8f8b8ad84318513c97949cd89bf42674e62c0 now=50000000 events=3118 live=0"
	goldenHaltSweep = "c561366f54f660eccc0b9799368829fa86ccaf7392d52ef7d136cf763586fa66"
)

func TestEventOrderGolden(t *testing.T) {
	p := newOrderProgram(42)
	defer p.s.Shutdown()
	p.s.Run(orderHorizon)
	if got := p.digest(); got != goldenOrder {
		t.Fatalf("event order changed:\n got %s\nwant %s", got, goldenOrder)
	}
}

// TestEventOrderHaltSweep halts the same program at a sweep of event indices:
// each halt must leave (Now, Events) and the log so far exactly where the
// parent kernel left them, and resuming must reproduce the uninterrupted log.
func TestEventOrderHaltSweep(t *testing.T) {
	sweep := sha256.New()
	for k := uint64(1); k < 3000; k += 1 + k/9 {
		p := newOrderProgram(42)
		p.s.HaltAtEvent(k)
		p.s.Run(orderHorizon)
		if !p.s.Halted() || p.s.Events() != k {
			t.Fatalf("HaltAtEvent(%d): halted=%v events=%d", k, p.s.Halted(), p.s.Events())
		}
		fmt.Fprintf(sweep, "%d %d %d %x\n", k, p.s.Now(), p.s.Events(), p.log.Sum(nil))
		p.s.HaltAtEvent(0)
		p.s.Run(orderHorizon)
		if got := p.digest(); got != goldenOrder {
			t.Fatalf("halt at %d then resume diverged:\n got %s\nwant %s", k, got, goldenOrder)
		}
		p.s.Shutdown()
	}
	if got := fmt.Sprintf("%x", sweep.Sum(nil)); got != goldenHaltSweep {
		t.Fatalf("halt points moved:\n got %s\nwant %s", got, goldenHaltSweep)
	}
}
