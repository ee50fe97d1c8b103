// Package nsmodel is the reference model the crash contract (§II-C) is
// checked against, and the one generator of client histories that feeds it.
// The model holds, per volume, the live files and the blocks written to them,
// every snapshot's frozen image, the clone bindings — and the operations
// begun but not acknowledged. One rule covers every check: every
// acknowledged fact must hold; an object named by an in-flight operation may
// be in its before- or its after-state, but atomically.
package nsmodel

import (
	"fmt"
	"maps"
	"slices"

	"wafl/internal/block"
)

// FBN is a file block number.
type FBN = block.FBN

// Kind names an operation: one of the eight NVRAM-logged kinds, a write
// admission control may refuse, or a metadata read.
type Kind uint8

const (
	Write Kind = iota
	WriteBulk
	Create
	Delete
	Getattr // the kinds up to here name a file, the rest a snapshot or a volume
	SnapCreate
	SnapDelete
	SnapRestore
	CloneCreate
	CloneSplit
	NumKinds
)

func (k Kind) String() string {
	return [NumKinds]string{"write", "write-bulk", "create", "delete", "getattr",
		"snap-create", "snap-delete", "snap-restore", "clone-create", "clone-split"}[k]
}

func (k Kind) fileOp() bool { return k <= Getattr }

// Op is one operation as a client issues it.
type Op struct {
	Kind Kind
	Vol  int    // the volume; CloneCreate's parent
	Ino  uint64 // the file — or, for the snapshot operations and CloneCreate, the snapshot ID
	FBN  FBN
	N    int // blocks written; Create's span

	image image // SnapCreate in flight: what it may have frozen
}

func (o Op) String() string {
	return fmt.Sprintf("%v(vol %d, %d, fbn %d+%d)", o.Kind, o.Vol, o.Ino, o.FBN, o.N)
}

// A file holds data on the blocks written and holes on the rest of its span,
// except where an operation that may or may not have taken effect left a
// block unsure, or the file's very existence open (maybe).
type file struct {
	span  int
	cells map[FBN]byte // hole (absent), data or unsure
	maybe bool
}

const data, unsure = 1, 2

// image is the files of a volume: live, or frozen in a snapshot.
type image map[uint64]*file

func (im image) clone() image {
	out := make(image, len(im))
	for ino, f := range im {
		out[ino] = &file{f.span, maps.Clone(f.cells), f.maybe}
	}
	return out
}

// loosen makes the image hold whether or not op took effect: the holes a
// write names become unsure (data is the same data either way), a deleted
// file may be gone.
func (im image) loosen(op *Op) {
	f := im[op.Ino]
	if !op.Kind.fileOp() || f == nil {
		return
	}
	switch op.Kind {
	case Write, WriteBulk:
		for b := op.FBN; b < op.FBN+FBN(op.N); b++ {
			if f.cells[b] != data {
				f.cells[b] = unsure
			}
		}
	case Delete:
		f.maybe = true
	}
}

type volume struct {
	live   image
	snaps  map[uint64]image // by ID; nil once its delete is acknowledged: it must stay gone
	seen   map[uint64]bool  // every inode the volume ever held: one not live must not exist
	clone  bool             // bound by an acknowledged CloneCreate
	parent int
}

// Model is the namespace a correct system holds after the history it was
// told (the simulation serializes clients: no locking).
type Model struct {
	vols     map[int]*volume
	inflight map[int]*Op // by client: begun, not acknowledged
	recent   []Op        // the last few acknowledged
	Acked    int
}

// New returns an empty model.
func New() *Model { return &Model{vols: map[int]*volume{}, inflight: map[int]*Op{}} }

func (m *Model) vol(i int) *volume {
	if m.vols[i] == nil {
		m.vols[i] = &volume{live: image{}, snaps: map[uint64]image{}, seen: map[uint64]bool{}}
	}
	return m.vols[i]
}

func sortedKeys[K int | uint64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// flying returns the in-flight operations of one kind (NumKinds: any) on vol
// (negative: any), in client order.
func (m *Model) flying(kind Kind, vol int) (out []*Op) {
	for _, c := range sortedKeys(m.inflight) {
		if o := m.inflight[c]; (vol < 0 || o.Vol == vol) && (kind == NumKinds || o.Kind == kind) {
			out = append(out, o)
		}
	}
	return out
}

// Begin records that client (negative: set-up) is about to issue op. A
// snapshot create freezes the volume somewhere between now and its
// acknowledgement, so its image is the volume as it stands, loosened by every
// operation that overlaps it: those in flight now and, as they begin, later.
func (m *Model) Begin(client int, op Op) {
	if op.Kind == SnapCreate {
		op.image = m.vol(op.Vol).live.clone()
		for _, o := range m.flying(NumKinds, op.Vol) {
			op.image.loosen(o)
		}
	}
	for _, o := range m.flying(SnapCreate, op.Vol) {
		o.image.loosen(&op)
	}
	m.inflight[client] = &op
}

// Ack records that client's operation returned: res is the identifier the
// system assigned (Create's inode, SnapCreate's ID, CloneCreate's volume) and
// ok whether it took effect — a refused or shed one changes nothing.
func (m *Model) Ack(client int, res uint64, ok bool) {
	op := m.inflight[client]
	delete(m.inflight, client)
	m.Acked++
	if m.recent = append(m.recent, *op); len(m.recent) > 6 {
		m.recent = m.recent[1:]
	}
	if !ok {
		return
	}
	v := m.vol(op.Vol)
	switch op.Kind {
	case Write, WriteBulk:
		if f := v.live[op.Ino]; f != nil {
			for b := op.FBN; b < op.FBN+FBN(op.N); b++ {
				f.cells[b] = data
			}
		}
	case Create:
		v.live[res], v.seen[res] = &file{span: op.N, cells: map[FBN]byte{}}, true
		// Named only now: a snapshot create still in flight may freeze it,
		// empty. (One acknowledged meanwhile froze the volume a CP earlier.)
		for _, o := range m.flying(SnapCreate, op.Vol) {
			o.image[res] = &file{span: op.N, cells: map[FBN]byte{}, maybe: true}
		}
	case Delete:
		delete(v.live, op.Ino)
	case SnapCreate:
		v.snaps[res] = op.image
	case SnapDelete:
		v.snaps[op.Ino] = nil
	case SnapRestore:
		v.live = v.snaps[op.Ino].clone()
	case CloneCreate:
		c := m.vol(int(res))
		c.live, c.clone, c.parent = v.snaps[op.Ino].clone(), true, op.Vol
		for ino := range c.live {
			c.seen[ino] = true
		}
	}
}

// Trail renders what a failing check needs beside it: the operations in
// flight, in client order, and the last few acknowledged.
func (m *Model) Trail() string {
	return fmt.Sprintf("in flight: %v; last acknowledged: %v", m.flying(NumKinds, -1), m.recent)
}

// System is what Verify probes: the read-only, untimed view of the file
// system that *wafl.System provides — and a test's fake that misbehaves.
type System interface {
	FileExists(vol int, ino uint64) bool
	VerifyAgainst(vol int, ino uint64, fbn FBN) error
	VerifyRead(vol int, ino uint64, fbn FBN) []byte
	SnapshotExists(vol int, id uint64) bool
	SnapVerifyAgainst(vol int, snapID, ino uint64, fbn FBN, expectData bool) error
	CloneVolumes() []int
	CloneBound(vol int) bool
	CloneSplitDone(vol int) bool
}

// check probes every block the file is sure of, up to the first mismatch.
func (f *file) check(probe func(fbn FBN, wantData bool) error) error {
	for fbn := FBN(0); fbn < FBN(f.span); fbn++ {
		if c := f.cells[fbn]; c != unsure {
			if err := probe(fbn, c == data); err != nil {
				return err
			}
		}
	}
	return nil
}

// anyOf compares vol against each candidate image — every inode in seen (nil:
// the image's own) exists exactly if the image holds it, and every block is
// data or a hole as it says — and passes if one matches in full; otherwise it
// reports why each did not.
func anyOf(sys System, vol int, cands []image, seen map[uint64]bool) (errs []string) {
	for _, want := range cands {
		found, inos := len(errs), sortedKeys(seen)
		if seen == nil {
			inos = sortedKeys(want)
		}
		for _, ino := range inos {
			f, exists := want[ino], sys.FileExists(vol, ino)
			switch {
			case f == nil && exists:
				errs = append(errs, fmt.Sprintf("vol %d ino %d: exists, want it deleted", vol, ino))
			case f != nil && !exists && !f.maybe:
				errs = append(errs, fmt.Sprintf("vol %d ino %d: lost", vol, ino))
			case f != nil && exists:
				if err := f.check(func(fbn FBN, wantData bool) error {
					if wantData {
						return sys.VerifyAgainst(vol, ino, fbn)
					}
					if sys.VerifyRead(vol, ino, fbn) != nil {
						return fmt.Errorf("vol %d ino %d fbn %d: data, want hole", vol, ino, fbn)
					}
					return nil
				}); err != nil {
					errs = append(errs, err.Error())
				}
			}
		}
		if len(errs) == found {
			return nil
		}
	}
	if len(cands) > 1 {
		errs = append(errs, fmt.Sprintf("vol %d: so it is none of the %d images an in-flight operation allows", vol, len(cands)))
	}
	return errs
}

// Verify returns what of the model does not hold in sys (the first few).
// settled says the system was quiesced since recovery, so what replay queued
// is applied: until then a volume a replayed SnapRestore has emptied but not
// yet rebound is not compared, and an in-flight create's clone may be unbound.
func (m *Model) Verify(sys System, settled bool) (errs []string) {
	for _, vol := range sortedKeys(m.vols) {
		v := m.vols[vol]
		if v.clone && !sys.CloneBound(vol) && !sys.CloneSplitDone(vol) {
			errs = append(errs, fmt.Sprintf("vol %d: acknowledged clone is neither bound nor split", vol))
		}
		// The volume equals its acknowledged image or, all or nothing, that of
		// a snapshot an in-flight SnapRestore names — loosened, either way, by
		// whatever else is in flight on it.
		cands := []image{v.live.clone()}
		for _, o := range m.flying(SnapRestore, vol) {
			if im := v.snaps[o.Ino]; im != nil {
				cands = append(cands, im.clone())
			}
		}
		for _, im := range cands {
			for _, o := range m.flying(NumKinds, vol) {
				im.loosen(o)
			}
		}
		if settled || len(cands) == 1 {
			errs = append(errs, anyOf(sys, vol, cands, v.seen)...)
		}
		for _, id := range sortedKeys(v.snaps) {
			im, exists := v.snaps[id], sys.SnapshotExists(vol, id)
			if im == nil && exists {
				errs = append(errs, fmt.Sprintf("vol %d: snapshot %d is back after its acknowledged delete", vol, id))
			} else if im != nil && !exists && !slices.ContainsFunc(m.flying(SnapDelete, vol), func(o *Op) bool { return o.Ino == id }) {
				errs = append(errs, fmt.Sprintf("vol %d: acknowledged snapshot %d lost", vol, id))
			}
			for _, ino := range sortedKeys(im) {
				if f := im[ino]; exists && !f.maybe {
					if err := f.check(func(fbn FBN, wantData bool) error {
						return sys.SnapVerifyAgainst(vol, id, ino, fbn, wantData)
					}); err != nil {
						errs = append(errs, err.Error())
					}
				}
			}
		}
	}
	// A clone no acknowledged create accounts for belongs to one in flight:
	// pending or bound — bound once settled — and then it serves exactly the
	// parent snapshot's image.
	var creates []image
	for _, o := range m.flying(CloneCreate, -1) {
		if im := m.vol(o.Vol).snaps[o.Ino]; im != nil {
			creates = append(creates, im)
		}
	}
	for _, cv := range sys.CloneVolumes() {
		switch v := m.vols[cv]; {
		case v != nil && v.clone: // acknowledged, and checked above
		case len(creates) == 0:
			errs = append(errs, fmt.Sprintf("vol %d: a clone no operation created", cv))
		case sys.CloneBound(cv):
			errs = append(errs, anyOf(sys, cv, creates, nil)...)
		case settled:
			errs = append(errs, fmt.Sprintf("vol %d: the clone of an in-flight create is still unbound after settling", cv))
		}
	}
	if len(errs) > 8 {
		errs = append(errs[:8], fmt.Sprintf("... and %d more", len(errs)-8))
	}
	return errs
}
