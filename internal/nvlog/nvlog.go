// Package nvlog implements the nonvolatile RAM operation log that lets WAFL
// acknowledge client writes long before a consistency point persists them
// (paper §II-C). The log is split into two halves: operations append to the
// active half while a CP drains the frozen half; when the active half fills,
// the halves switch and a new CP begins. If both halves are full the system
// is in a back-to-back CP and incoming operations stall — which is exactly
// how an undersized write allocator throttles client throughput.
//
// After a crash, the file system loads the last committed CP and replays
// the log: the frozen half first (its CP did not complete), then the active
// half.
package nvlog

import (
	"wafl/internal/block"
)

// OpKind identifies a logged operation type.
type OpKind uint8

// Logged operation kinds. Snapshot ops reuse the Ino field for the snapshot
// ID. Clone/restore ops reuse Ino for the snapshot ID too; OpCloneCreate
// additionally reuses FBN for the parent volume's member-local index.
const (
	OpWrite OpKind = iota + 1
	OpCreate
	OpDelete
	OpSnapCreate
	OpSnapDelete
	OpSnapRestore
	OpCloneCreate
	OpCloneSplit
)

// recordOverhead approximates the per-record NVRAM header cost in bytes.
const recordOverhead = 32

// Record is one logged client operation.
type Record struct {
	Kind OpKind
	Vol  uint32
	Ino  uint64
	FBN  block.FBN
	// Data is OpWrite's payload. It is immutable: the buffer the write
	// dirtied adopts this very array (fs.File.WriteBlock), and the media
	// later holds it, so nobody writes into it once it is logged.
	Data []byte
	// LogicalBytes, when nonzero, is the NVRAM space the record occupies
	// regardless of how much pattern data the simulation stores (payload
	// compression is a simulation-speed knob, not a semantic one).
	LogicalBytes uint32
	MaxBlocks    uint64 // capacity hint for OpCreate
	Seq          uint64 // global order, assigned by Append
}

// Size returns the NVRAM bytes this record occupies.
func (r Record) Size() uint64 {
	payload := uint64(len(r.Data))
	if uint64(r.LogicalBytes) > payload {
		payload = uint64(r.LogicalBytes)
	}
	return recordOverhead + payload
}

type half struct {
	recs  []Record
	bytes uint64
}

// Log is a two-half NVRAM operation log.
type Log struct {
	halfCap  uint64
	halves   [2]half
	active   int
	frozen   int // -1 when no CP is draining
	seq      uint64
	reserved uint64 // space promised to in-flight ops (see Reserve)

	// Stalls counts Append attempts rejected because the active half was
	// full while the other half was still draining (back-to-back CP).
	Stalls uint64
}

// New creates a log whose halves hold halfCap bytes each.
func New(halfCap uint64) *Log {
	return &Log{halfCap: halfCap, frozen: -1}
}

// Append logs r into the active half, assigning its sequence number. It
// returns false — without logging — if the active half cannot hold r on
// top of outstanding reservations (the caller should trigger/wait for a CP
// and retry).
func (l *Log) Append(r Record) bool {
	h := &l.halves[l.active]
	if h.bytes+l.reserved+r.Size() > l.halfCap {
		l.Stalls++
		return false
	}
	l.append(r)
	return true
}

func (l *Log) append(r Record) {
	h := &l.halves[l.active]
	l.seq++
	r.Seq = l.seq
	h.recs = append(h.recs, r)
	h.bytes += r.Size()
}

// Reservation is one in-flight operation's claim on NVRAM space. Each op
// appends only against its own remaining claim; overshooting it is a
// program error (panic), not a silent raid on the shared pool — the old
// pooled accounting let one overshooting op consume other ops' promised
// space and push the active half past halfCap.
type Reservation struct {
	l         *Log
	remaining uint64
}

// Reserve sets aside n bytes of the active half for an in-flight operation,
// so that the operation's later Reservation.Append calls cannot fail. The
// write path reserves in the (stallable) client context, then appends each
// record *atomically adjacent* to dirtying its buffer inside the stripe
// affinity — guaranteeing a record and its dirty buffer land on the same
// side of any CP freeze. The Reservation is a value the op keeps (the client
// keeps it in its op record); it returns the zero Reservation and false when
// the half cannot hold the reservation yet.
func (l *Log) Reserve(n uint64) (Reservation, bool) {
	if n > l.halfCap {
		panic("nvlog: reservation exceeds half capacity")
	}
	if l.halves[l.active].bytes+l.reserved+n > l.halfCap {
		l.Stalls++
		return Reservation{}, false
	}
	l.reserved += n
	return Reservation{l: l, remaining: n}, true
}

// Append logs rec against this reservation; it cannot stall. If a half
// switch happened since Reserve, the record (and its reservation) simply
// apply to the new active half — consistent with its buffer dirtying, which
// also lands in the new CP generation. Panics if rec exceeds the
// reservation's remaining bytes.
func (r *Reservation) Append(rec Record) {
	size := rec.Size()
	if size > r.remaining {
		panic("nvlog: record exceeds its operation's reservation")
	}
	r.remaining -= size
	r.l.reserved -= size
	r.l.append(rec)
}

// Remaining returns the unconsumed bytes of the reservation.
func (r *Reservation) Remaining() uint64 { return r.remaining }

// Release returns any unconsumed bytes to the pool. Safe to call more than
// once; call it when the operation finishes appending.
func (r *Reservation) Release() {
	r.l.reserved -= r.remaining
	r.remaining = 0
}

// ActiveOps returns the number of records in the active half.
func (l *Log) ActiveOps() int { return len(l.halves[l.active].recs) }

// Fullness returns the active half's fill fraction in [0,1].
func (l *Log) Fullness() float64 {
	return float64(l.halves[l.active].bytes) / float64(l.halfCap)
}

// HasFrozen reports whether a CP is currently draining a frozen half.
func (l *Log) HasFrozen() bool { return l.frozen >= 0 }

// Switch freezes the active half for a starting CP and opens the other
// half for new appends. The other half must have been freed (no
// overlapping CPs).
func (l *Log) Switch() {
	if l.frozen >= 0 {
		panic("nvlog: Switch while a frozen half is still draining")
	}
	l.frozen = l.active
	l.active = 1 - l.active
	if l.halves[l.active].bytes != 0 {
		panic("nvlog: switching into a non-empty half")
	}
}

// FreeFrozen discards the frozen half after its CP commits. The records'
// payload references are dropped; the record array is kept for the half's
// next turn as the active one.
func (l *Log) FreeFrozen() {
	if l.frozen < 0 {
		panic("nvlog: FreeFrozen without a frozen half")
	}
	h := &l.halves[l.frozen]
	clear(h.recs)
	*h = half{recs: h.recs[:0]}
	l.frozen = -1
}

// Restore reloads replayed records into the active half after a crash,
// preserving their original sequence numbers, so they stay NVRAM-protected
// until the next CP commits them (§II-C): a second crash before that CP
// replays them again. The restored set may legitimately exceed halfCap —
// before the crash the records occupied up to both halves — so capacity is
// deliberately unchecked here; an over-full active half stalls new client
// ops until the recovery CP drains it.
func (l *Log) Restore(recs []Record) {
	h := &l.halves[l.active]
	for _, r := range recs {
		h.recs = append(h.recs, r)
		h.bytes += r.Size()
		if r.Seq > l.seq {
			l.seq = r.Seq
		}
	}
}

// Replay returns every record that must be reapplied after a crash, in
// order: the frozen half (whose CP never committed) first, then the active
// half.
func (l *Log) Replay() []Record {
	var out []Record
	if l.frozen >= 0 {
		out = append(out, l.halves[l.frozen].recs...)
	}
	out = append(out, l.halves[l.active].recs...)
	return out
}
