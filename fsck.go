package wafl

import (
	"fmt"

	"wafl/internal/aggregate"
	"wafl/internal/block"
	"wafl/internal/fs"
	"wafl/internal/snap"
)

// FsckReport summarizes an offline consistency check of the committed
// (on-media) file system image.
type FsckReport struct {
	ReferencedBlocks uint64 // blocks reachable from the superblock
	UsedBits         uint64 // bits set in the persisted activemap
	Leaked           uint64 // used but unreachable (space leak)
	DoubleRefs       uint64 // blocks referenced by two pointers
	Missing          uint64 // referenced but not marked used or not on the media, or used but not on the media (corruption)
	ContainerErrs    uint64 // container-map entries disagreeing with trees
	VVBNErrs         uint64 // volume activemap bits disagreeing with trees
	SnapErrs         uint64 // summary/snapmap disagreements, ownerless bits
	IdxErrs          uint64 // free-space index counters/summary vs recount
	ParityErrs       uint64 // used blocks that do not reconstruct from the rest of their stripe
	Files            uint64
	Snapshots        uint64 // materialized snapshots found on media
	Errors           []string
}

// OK reports whether the image is fully consistent. Leaked blocks are a
// space bug; Missing and DoubleRefs are corruption.
func (r FsckReport) OK() bool {
	return r.Missing == 0 && r.DoubleRefs == 0 && r.Leaked == 0 &&
		r.ContainerErrs == 0 && r.VVBNErrs == 0 && r.SnapErrs == 0 &&
		r.IdxErrs == 0 && r.ParityErrs == 0 && len(r.Errors) == 0
}

func (r FsckReport) String() string {
	return fmt.Sprintf("fsck: refs=%d used=%d leaked=%d double=%d missing=%d containerErrs=%d vvbnErrs=%d snapErrs=%d idxErrs=%d parityErrs=%d files=%d snaps=%d errs=%d",
		r.ReferencedBlocks, r.UsedBits, r.Leaked, r.DoubleRefs, r.Missing,
		r.ContainerErrs, r.VVBNErrs, r.SnapErrs, r.IdxErrs, r.ParityErrs, r.Files, r.Snapshots, len(r.Errors))
}

// Fsck checks every member's committed media image and folds the reports
// into one: counters sum, errors concatenate in member order (member-labelled
// on a cluster). It never touches the running system's in-memory state.
func (sys *System) Fsck() FsckReport {
	var r FsckReport
	for _, mem := range sys.members {
		mem.fsck(&r, sys.label(mem, " "))
	}
	return r
}

// FsckMember checks the committed media image of one member.
func (sys *System) FsckMember(i int) FsckReport {
	var r FsckReport
	sys.members[i].fsck(&r, "")
	return r
}

// fsck mounts the member's committed media image and cross-checks it:
// every block reachable from the superblock must be marked used in the
// persisted activemap, every used bit must be reachable (no leaks), no
// block may be referenced twice, and for user files the container map and
// volume activemaps must agree with the buffer trees. It adds its counts to
// r, and its errors, each after prefix, to r.Errors while it holds fewer
// than 50.
func (mem *Member) fsck(r *FsckReport, prefix string) {
	fail := func(format string, args ...any) {
		if len(r.Errors) < 50 {
			r.Errors = append(r.Errors, prefix+fmt.Sprintf(format, args...))
		}
	}
	m, err := aggregate.MountFrom(mem.a)
	if err != nil {
		fail("%v", err)
		return
	}
	geo := m.Geometry()
	refs := make(map[block.VBN]int)
	ref := func(vbn block.VBN, what string) {
		if vbn == 0 || vbn == block.InvalidVBN {
			return
		}
		refs[vbn]++
		if refs[vbn] == 2 {
			r.DoubleRefs++
			fail("double reference to %v (%s)", vbn, what)
		}
	}

	// Reserved stripe-0 blocks are implicitly referenced (vbn 0 holds the
	// superblock itself).
	for gi := 0; gi < geo.NumGroups; gi++ {
		for di := 0; di < geo.DataDrives; di++ {
			refs[geo.VBNOf(gi, di, 0)] = 1
		}
	}

	// walkSkip reads every block of a tree on media (fs.File.Walk),
	// referencing each and handing it to visit (nil for metafile trees) with
	// its level and index. skip (nil for most trees) suppresses the physical
	// reference for blocks whose VVBN it reports true for: a clone's base
	// blocks are physically owned — and referenced — by the parent snapshot,
	// so counting the clone's pointer too would read as a double reference.
	walkSkip := func(f *fs.File, tag string, skip func(block.VVBN) bool, visit func(level int, idx block.FBN, vvbn block.VVBN, vbn block.VBN)) {
		f.Walk(func(level int, idx block.FBN, vvbn block.VVBN, vbn block.VBN) []byte {
			if skip == nil || vvbn == block.InvalidVVBN || !skip(vvbn) {
				what := fmt.Sprintf("%s L%d", tag, level)
				if level == f.Height() {
					what = tag + " root"
				}
				ref(vbn, what)
			}
			if visit != nil {
				visit(level, idx, vvbn, vbn)
			}
			img := m.ReadImage(vbn)
			if img.IsNil() {
				r.Missing++
				fail("%s: unreadable block at %v", tag, vbn)
			}
			return img.Bytes
		})
	}
	walk := func(f *fs.File, tag string) { walkSkip(f, tag, nil, nil) }

	walk(m.AmapFile(), "aggr-amap")
	walk(m.VolTableFile(), "voltable")
	for _, v := range m.Volumes() {
		vvbnUsed := make(map[block.VVBN]bool)
		walk(v.InoFile(), fmt.Sprintf("vol%d-inofile", v.ID()))
		walk(v.ContainerFile(), fmt.Sprintf("vol%d-container", v.ID()))
		walk(v.AmapFile(), fmt.Sprintf("vol%d-amap", v.ID()))
		walk(v.SnapdirFile(), fmt.Sprintf("vol%d-snapdir", v.ID()))
		walk(v.SummaryFile(), fmt.Sprintf("vol%d-summary", v.ID()))
		// Clone state: the base map metafile is an ordinary clone-owned
		// metafile; base-marked VVBNs resolve to parent-owned physical
		// blocks the parent snapshot references, so the clone's own tree
		// pointers to them must not be counted as references.
		st := v.CloneState()
		var inBase func(block.VVBN) bool
		var parent *aggregate.Volume
		if st != nil {
			walk(st.BaseFile, fmt.Sprintf("vol%d-basemap", v.ID()))
			inBase = func(vv block.VVBN) bool { return st.Base.IsSet(uint64(vv)) }
			parent = m.Volume(st.ParentVol)
			if !parent.SnapshotExists(st.ParentSnap) {
				r.SnapErrs++
				fail("vol%d: clone of vol%d snap %d but the snapshot is gone (delete guard breached)",
					v.ID(), st.ParentVol, st.ParentSnap)
			}
		}
		snaps := v.Snapshots()
		r.Snapshots += uint64(len(snaps))
		for _, s := range snaps {
			walk(s.Snapmap, fmt.Sprintf("vol%d-snap%d-snapmap", v.ID(), s.ID))
			walk(s.InoCopy, fmt.Sprintf("vol%d-snap%d-inocopy", v.ID(), s.ID))
		}
		// User files, from inode records.
		for ino := uint64(aggregate.FirstUserIno); ino < v.NextIno(); ino++ {
			f := v.LookupFile(ino)
			if f == nil {
				continue
			}
			r.Files++
			tag := fmt.Sprintf("vol%d-ino%d", v.ID(), ino)
			walkSkip(f, tag, inBase, func(level int, idx block.FBN, vvbn block.VVBN, vbn block.VBN) {
				if vvbn == block.InvalidVVBN {
					return
				}
				// Dual-addressed indirect blocks occupy VVBNs like L0s do.
				vvbnUsed[vvbn] = true
				if level > 0 {
					return
				}
				if got := v.Container(vvbn); got != vbn {
					r.ContainerErrs++
					fail("%s fbn %d: container[%v]=%v want %v", tag, idx, vvbn, got, vbn)
				}
			})
		}
		// Snapshot cross-checks, bit by bit over the VVBN space. The
		// persisted summary map must equal the OR of the persisted
		// snapmaps — OR'd with the base map for a clone: a summary bit no
		// owner holds pins a block forever (space held with no owner); a
		// snapmap/base bit missing from the summary lets the allocator
		// reuse a block a snapshot (or the parent-shared base) still
		// references. A VVBN held only by snapshots (clear in the
		// activemap) must still have a valid container entry — that entry
		// is the only path to the block's physical home, which we
		// reference here so snapshot-held blocks are neither leaked nor
		// reclaimable in the aggregate check below. Base-held VVBNs resolve
		// to parent-owned physical blocks: the parent references them, so
		// here we only verify the clone's container agrees with the
		// parent's (shared addressing) instead of referencing again.
		for bn := uint64(0); bn < v.VVBNBlocks(); bn++ {
			held := false
			for _, s := range snaps {
				if snap.BitSet(s.Snapmap, bn) {
					held = true
					break
				}
			}
			baseHeld := st != nil && st.Base.IsSet(bn)
			if sum := v.Summary.IsSet(bn); sum != (held || baseHeld) {
				r.SnapErrs++
				if sum {
					fail("vol%d: summary bit %d set but no snapshot or base holds it", v.ID(), bn)
				} else {
					fail("vol%d: vvbn %d held by a snapmap or the base map but clear in summary", v.ID(), bn)
				}
			}
			if baseHeld {
				pvbn := v.Container(block.VVBN(bn))
				if pvbn == 0 || pvbn == block.InvalidVBN {
					r.SnapErrs++
					fail("vol%d: base-held vvbn %d has no container entry", v.ID(), bn)
				} else if pp := parent.Container(block.VVBN(bn)); pp != pvbn {
					r.SnapErrs++
					fail("vol%d: base vvbn %d container=%v but parent vol%d has %v", v.ID(), bn, pvbn, st.ParentVol, pp)
				}
				continue
			}
			if held && !v.Activemap.IsSet(bn) {
				pvbn := v.Container(block.VVBN(bn))
				if pvbn == 0 || pvbn == block.InvalidVBN {
					r.SnapErrs++
					fail("vol%d: snapshot-held vvbn %d has no container entry", v.ID(), bn)
				} else {
					ref(pvbn, fmt.Sprintf("vol%d snap-held vvbn %d", v.ID(), bn))
				}
			}
		}
		// Cross-check the volume activemap against the referenced set
		// bit by bit: a set bit nobody references is a leaked VVBN, a
		// referenced VVBN whose bit is clear is corruption. Counting by
		// subtraction (used − referenced) underflowed when references
		// outnumbered used bits, and let the two error directions cancel.
		for bn := uint64(0); bn < v.VVBNBlocks(); bn++ {
			set := v.Activemap.IsSet(bn)
			refd := vvbnUsed[block.VVBN(bn)]
			switch {
			case set && !refd:
				r.VVBNErrs++
				fail("vol%d: vvbn %d marked used but unreferenced", v.ID(), bn)
			case !set && refd:
				r.VVBNErrs++
				fail("vol%d: vvbn %d referenced but not marked used", v.ID(), bn)
			}
		}
		// The free-space index must match a full recount of the maps it
		// summarizes — on the mounted image (exercising the word-wise
		// mount-time rebuild) and on the live volume (catching incremental
		// maintenance drift, e.g. a transition path that skipped the
		// OnChange hooks).
		for _, e := range v.FreeIdx.Verify() {
			r.IdxErrs++
			fail("vol%d (mounted): %s", v.ID(), e)
		}
	}
	for _, v := range mem.a.Volumes() {
		for _, e := range v.FreeIdx.Verify() {
			r.IdxErrs++
			fail("vol%d (live): %s", v.ID(), e)
		}
	}
	// The aggregate's index (per-AA free counts) likewise, both ways.
	for _, e := range m.FreeIdx.Verify() {
		r.IdxErrs++
		fail("aggregate (mounted): %s", e)
	}
	for _, e := range mem.a.FreeIdx.Verify() {
		r.IdxErrs++
		fail("aggregate (live): %s", e)
	}

	r.ReferencedBlocks += uint64(len(refs))
	r.UsedBits += m.Activemap.Used()
	// Same per-bit cross-check for the aggregate activemap: leaks and
	// missing references must be counted independently, not derived from
	// the difference of two totals (where they cancel pairwise). And every
	// used block but the reserved stripe 0 must be on the media, read through
	// the god view (no fault plan, no reconstruction): the CP engine forgets
	// a freed block's image, and one forgotten too early is a lost block,
	// whether or not a walk above reads it. usedIn counts a stripe's used
	// blocks, for the parity check below.
	usedIn := make([]uint16, geo.NumGroups*int(geo.Depth))
	for bn := uint64(0); bn < geo.TotalBlocks(); bn++ {
		set := m.Activemap.IsSet(bn)
		refd := refs[block.VBN(bn)] > 0
		switch {
		case set && !refd:
			r.Leaked++
			fail("vbn %d marked used but unreachable", bn)
		case !set && refd:
			r.Missing++
			fail("referenced vbn %d not marked used", bn)
		}
		if !set {
			continue
		}
		g, d, dbn := geo.Locate(block.VBN(bn))
		if dbn == 0 {
			continue
		}
		usedIn[g*int(geo.Depth)+int(dbn)]++
		if m.Group(g).Drive(d).Image(dbn).IsNil() {
			r.Missing++
			fail("used vbn %d has no media image", bn)
		}
	}
	// Every used block but the reserved stripe 0 must reconstruct from the
	// rest of its stripe, as a drive failure would need it to. A block
	// reconstructs to its image exactly when the stripe's data images XOR to
	// its parity row's, so one check a stripe covers every used block in it.
	for i, n := range usedIn {
		if n == 0 {
			continue
		}
		g, dbn := i/int(geo.Depth), block.DBN(i%int(geo.Depth))
		if !m.Group(g).VerifyStripe(dbn) {
			r.ParityErrs += uint64(n)
			fail("group %d stripe %d: %d used blocks do not reconstruct from the stripe", g, dbn, n)
		}
	}
}

// VerifyAgainst recomputes the expected payload for (ino, fbn) and checks
// the committed content matches (test helper).
func (sys *System) VerifyAgainst(vol int, ino uint64, fbn FBN) error {
	got := sys.VerifyRead(vol, ino, fbn)
	var buf [block.Size]byte
	want := sys.payload(ino, fbn, 0).AppendBytes(buf[:0])
	if got == nil {
		return fmt.Errorf("vol %d ino %d fbn %d: hole, want data", vol, ino, fbn)
	}
	if !block.Equal(got, want) {
		return fmt.Errorf("vol %d ino %d fbn %d: content mismatch", vol, ino, fbn)
	}
	return nil
}

// SnapVerifyAgainst checks block fbn of ino inside snapshot snapID's frozen
// image: when expectData is true the block must hold the oracle payload,
// otherwise it must be a hole (test helper, untimed).
func (sys *System) SnapVerifyAgainst(vol int, snapID, ino uint64, fbn FBN, expectData bool) error {
	got, ok := sys.SnapVerifyRead(vol, snapID, ino, fbn)
	if !ok {
		return fmt.Errorf("vol %d snap %d: no image of ino %d", vol, snapID, ino)
	}
	if !expectData {
		if got != nil {
			return fmt.Errorf("vol %d snap %d ino %d fbn %d: data, want hole", vol, snapID, ino, fbn)
		}
		return nil
	}
	var buf [block.Size]byte
	want := sys.payload(ino, fbn, 0).AppendBytes(buf[:0])
	if got == nil {
		return fmt.Errorf("vol %d snap %d ino %d fbn %d: hole, want data", vol, snapID, ino, fbn)
	}
	if !block.Equal(got, want) {
		return fmt.Errorf("vol %d snap %d ino %d fbn %d: frozen content mismatch", vol, snapID, ino, fbn)
	}
	return nil
}
