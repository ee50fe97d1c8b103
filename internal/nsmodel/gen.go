package nsmodel

import (
	"math/rand"
	"slices"

	"wafl/internal/sim"
)

// Ops is what a Client drives: *wafl.ClientCtx, or a test's stand-in for it.
type Ops interface {
	Alive() bool
	Write(vol int, ino uint64, fbn FBN, nblocks int) sim.Duration
	WriteBulk(vol int, ino uint64, fbn FBN, nblocks int) (sim.Duration, bool)
	Create(vol int, maxBlocks uint64) uint64
	Delete(vol int, ino uint64) bool
	Getattr(vol int, ino uint64) sim.Duration
	SnapCreate(vol int) uint64
	SnapDelete(vol int, id uint64) bool
	SnapRestore(vol int, id uint64) bool
	CloneCreate(parentVol int, snapID uint64) (int, bool)
	CloneSplit(vol int) bool
}

// Mix says what a client does: operations drawn by kind with the given
// weights, on targets drawn from what the model holds — or, the degenerate
// mix, exactly the operations of Script in order. A script names what only
// the run can know symbolically: Vol LastClone is the clone its client made
// last (the operation is skipped while there is none), and Ino is always the
// volume's first file or, for the snapshot operations, its newest snapshot.
type Mix struct {
	Weights [NumKinds]int
	Script  []Op
}

// LastClone is a script operation's Vol for its client's newest clone.
const LastClone = -1

// AllKinds draws every logged operation kind.
var AllKinds = Mix{Weights: [NumKinds]int{Write: 18, Create: 6, Delete: 4, SnapCreate: 3,
	SnapRestore: 2, CloneCreate: 2, CloneSplit: 3, SnapDelete: 2}}

const (
	createSpan = 64 // blocks a created file may hold
	bulkBlocks = 16 // size of a bulk write; the others are 1-4 blocks
)

// Client is one seeded closed-loop client of the model's system.
type Client struct {
	m     *Model
	id    int
	rng   *rand.Rand
	vols  []int // home volumes; their clones are reachable too
	clone int

	Finished bool // Run has returned
}

// Client adds a client confined to vols and their clones.
func (m *Model) Client(id int, seed int64, vols []int) *Client {
	return &Client{m: m, id: id, rng: rand.New(rand.NewSource(seed)), vols: vols, clone: LastClone}
}

// Run issues steps operations of mix through ops (all of a script; with
// steps zero, operations for as long as ops is alive).
func (c *Client) Run(ops Ops, mix Mix, steps int) {
	next := func(int) (Op, bool) { return c.draw(mix) }
	if len(mix.Script) > 0 {
		steps, next = len(mix.Script), func(i int) (Op, bool) { return c.resolve(mix.Script[i]) }
	}
	for i := 0; (i < steps || steps == 0) && ops.Alive(); i++ {
		if op, ok := next(i); ok {
			c.do(ops, op)
		}
	}
	c.Finished = true
}

// do performs one operation between the model's Begin and Ack.
func (c *Client) do(ops Ops, op Op) {
	c.m.Begin(c.id, op)
	var res uint64
	ok := true
	switch op.Kind {
	case Write:
		ops.Write(op.Vol, op.Ino, op.FBN, op.N)
	case WriteBulk:
		_, ok = ops.WriteBulk(op.Vol, op.Ino, op.FBN, op.N)
	case Create:
		res = ops.Create(op.Vol, uint64(op.N))
	case Delete:
		ok = ops.Delete(op.Vol, op.Ino)
	case Getattr:
		ops.Getattr(op.Vol, op.Ino)
	case SnapCreate:
		res = ops.SnapCreate(op.Vol)
	case SnapDelete:
		ok = ops.SnapDelete(op.Vol, op.Ino)
	case SnapRestore:
		ok = ops.SnapRestore(op.Vol, op.Ino)
	case CloneCreate:
		var cv int
		if cv, ok = ops.CloneCreate(op.Vol, op.Ino); ok {
			res, c.clone = uint64(cv), cv
		}
	case CloneSplit:
		ok = ops.CloneSplit(op.Vol)
	}
	c.m.Ack(c.id, res, ok)
}

// resolve fills in a script operation's symbolic names.
func (c *Client) resolve(op Op) (Op, bool) {
	if op.Vol == LastClone {
		op.Vol = c.clone
	}
	v := c.m.vols[op.Vol]
	if v == nil {
		return op, false
	}
	if files := sortedKeys(v.live); op.Kind.fileOp() && op.Kind != Create && len(files) > 0 {
		op.Ino = files[0]
	} else if ids := v.snapshots(); !op.Kind.fileOp() && len(ids) > 0 {
		op.Ino = ids[len(ids)-1]
	}
	return op, true
}

// snapshots returns the IDs of the volume's snapshots, oldest first.
func (v *volume) snapshots() []uint64 {
	return slices.DeleteFunc(sortedKeys(v.snaps), func(id uint64) bool { return v.snaps[id] == nil })
}

// draw picks the next operation of a weighted mix — a kind, a reachable volume,
// a target the model holds — or reports that the step is to be skipped.
func (c *Client) draw(mix Mix) (op Op, ok bool) {
	total := 0
	for _, w := range mix.Weights {
		total += w
	}
	r := c.rng.Intn(total)
	for r >= mix.Weights[op.Kind] {
		r -= mix.Weights[op.Kind]
		op.Kind++
	}
	// The home volumes and, transitively, their clones (which index higher).
	vols := slices.Clone(c.vols)
	for _, vol := range sortedKeys(c.m.vols) {
		if v := c.m.vols[vol]; v.clone && slices.Contains(vols, v.parent) {
			vols = append(vols, vol)
		}
	}
	op.Vol = vols[c.rng.Intn(len(vols))]
	v := c.m.vol(op.Vol)
	if op.Kind == CloneSplit && !v.clone || op.Kind == CloneCreate && v.clone {
		return op, false // only clones split, and clones are made from client volumes
	}
	switch {
	case op.Kind == Create:
		op.N = createSpan
	case op.Kind.fileOp():
		// Not a file that may not exist: a write to it would be to nothing.
		files := slices.DeleteFunc(sortedKeys(v.live), func(ino uint64) bool { return v.live[ino].maybe })
		if len(files) == 0 || op.Kind == Delete && len(files) == 1 {
			return op, false
		}
		op.Ino = files[c.rng.Intn(len(files))]
		if op.N = 1 + c.rng.Intn(4); op.Kind == WriteBulk {
			op.N = bulkBlocks
		}
		op.FBN = FBN(c.rng.Intn(v.live[op.Ino].span - op.N + 1))
	case op.Kind != SnapCreate && op.Kind != CloneSplit: // the operations on an existing snapshot
		ids := v.snapshots()
		if len(ids) == 0 {
			return op, false
		}
		op.Ino = ids[c.rng.Intn(len(ids))]
	}
	return op, c.clear(op)
}

// clear reports whether op may begin given what other clients have in flight
// on its volume: a SnapRestore has its volume to itself, and a delete its
// file — the file system answers a write to a file one of them removed by
// panicking, where a server would answer ESTALE.
func (c *Client) clear(op Op) bool {
	for id, o := range c.m.inflight {
		sameFile := o.Kind.fileOp() && op.Kind.fileOp() && o.Ino == op.Ino
		if id != c.id && o.Vol == op.Vol && (o.Kind == SnapRestore || op.Kind == SnapRestore ||
			sameFile && (o.Kind == Delete || op.Kind == Delete)) {
			return false
		}
	}
	return true
}
