// Package snap implements per-volume point-in-time snapshots. A snapshot is
// taken atomically at a consistency-point boundary: the CP engine captures
// the volume's activemap content as a dedicated **snapmap** metafile and the
// inode-file content as an **inocopy** metafile, then folds the snapmap into
// the volume's **summary map** (the OR of all live snapmaps). The write
// allocator treats a block as free only when it is clear in both the active
// map and the summary map (free = !active && !summary), so snapshot-held
// VVBNs — and, through the container map, their physical homes — are never
// reused while any snapshot references them. Snapshot delete diffs the
// victim's snapmap against the active map and the surviving snapmaps and
// reclaims exclusively-held blocks back to the aggregate.
//
// The package holds the snapshot data types, the on-disk snapdir entry
// format, and the pure bitmap algorithms (content capture, delete diffing).
// Reading a frozen tree off the media is fs.ReadTree. Wiring into volumes,
// the CP engine, the allocator, and the NVRAM log lives in the owning
// packages.
package snap

import (
	"encoding/binary"
	"math/bits"

	"wafl/internal/bitmap"
	"wafl/internal/block"
	"wafl/internal/fs"
)

// EntrySize is the on-disk size of one snapdir entry: a header plus the
// records of the snapshot's two metafiles.
const EntrySize = 256

// EntriesPerBlock is the number of snapdir entries per snapdir block.
const EntriesPerBlock = block.Size / EntrySize

// Snapshot is one materialized point-in-time image of a volume. Snapmap and
// InoCopy are physical-only metafiles written once by the materializing CP
// and immutable afterwards; both roots are persisted in the volume's snapdir
// so the image is reachable from the superblock.
type Snapshot struct {
	ID       uint64
	CreateCP uint64 // CP count at which the image was frozen

	Snapmap *fs.File // copy of the volume activemap content at CreateCP
	InoCopy *fs.File // copy of the inode-file content at CreateCP
}

// EncodeEntry serializes s into one snapdir entry.
func (s *Snapshot) EncodeEntry(dst []byte) {
	for i := range dst[:EntrySize] {
		dst[i] = 0
	}
	binary.LittleEndian.PutUint64(dst[0:], s.ID)
	binary.LittleEndian.PutUint64(dst[8:], s.CreateCP)
	binary.LittleEndian.PutUint32(dst[16:], 1) // in use
	fs.EncodeRecord(dst[64:], s.Snapmap.RecordOf(fs.FlagMetafile))
	fs.EncodeRecord(dst[128:], s.InoCopy.RecordOf(fs.FlagMetafile))
}

// DecodeEntry rebuilds a snapshot skeleton from a snapdir entry (mount
// path). Returns nil for an unused slot, and an error for a damaged
// metafile record (fs.DecodeMetafile). src may be short: bytes past its end
// read as zero. The caller loads the metafile trees from media.
func DecodeEntry(src []byte) (*Snapshot, error) {
	var e [EntrySize]byte
	copy(e[:], src)
	if binary.LittleEndian.Uint32(e[16:]) == 0 {
		return nil, nil
	}
	snapmap, err := fs.DecodeMetafile(e[64:])
	if err != nil {
		return nil, err
	}
	inoCopy, err := fs.DecodeMetafile(e[128:])
	if err != nil {
		return nil, err
	}
	return &Snapshot{
		ID:       binary.LittleEndian.Uint64(e[0:]),
		CreateCP: binary.LittleEndian.Uint64(e[8:]),
		Snapmap:  snapmap,
		InoCopy:  inoCopy,
	}, nil
}

// CopyContent copies every resident L0 block of src into dst, dirtying the
// copies into the running CP, and returns the number of blocks copied. The
// CP engine uses it to capture metafile content (activemap, inode file) at
// the freeze point: src's L0s are fully resident for metafiles (mount loads
// them eagerly and they are never evicted), so this is an exact image.
func CopyContent(dst, src *fs.File) int {
	n := 0
	for fbn := block.FBN(0); fbn < src.Size(); fbn++ {
		sbuf := src.Buffer(0, fbn)
		if sbuf == nil {
			continue // hole: absent in the copy too
		}
		dbuf := dst.GetOrCreateL0(fbn)
		copy(dbuf.CPMutableData(), sbuf.Data())
		dst.DirtyIntoCP(dbuf)
		n++
	}
	return n
}

// ReplaceContent makes dst's L0 content exactly equal src's: resident src
// blocks are copied in, and resident dst blocks with no src counterpart are
// zero-filled (a record block full of zeroes decodes as no inodes). Both
// directions dirty into the running CP. SnapRestore uses it to rebind the
// active inode file to a snapshot's inocopy: plain CopyContent would leave
// records of files created after the snapshot dangling past the image's
// end. Returns the number of blocks touched.
func ReplaceContent(dst, src *fs.File) int {
	n := CopyContent(dst, src)
	limit := dst.Size()
	if src.Size() > limit {
		limit = src.Size()
	}
	for fbn := block.FBN(0); fbn < limit; fbn++ {
		if src.Buffer(0, fbn) != nil {
			continue // copied above
		}
		dbuf := dst.Buffer(0, fbn)
		if dbuf == nil {
			continue // hole on both sides
		}
		d := dbuf.CPMutableData()
		for i := range d {
			d[i] = 0
		}
		dst.DirtyIntoCP(dbuf)
		n++
	}
	return n
}

// BitSet reports whether bit bn is set in a bitmap metafile (snapmap
// content), treating absent blocks as all-zero.
func BitSet(f *fs.File, bn uint64) bool {
	return bitmap.Word(f, bn&^63)&(1<<(bn%64)) != 0
}

// ReclaimSets computes the two bit sets a snapshot delete must process,
// given the victim's snapmap, the surviving snapmaps, and the active map
// content (all bitmap metafiles over the same nbits VVBN space):
//
//	summaryClear — bits held by the victim and by no survivor: these leave
//	  the summary map (the block is no longer snapshot-held);
//	fullFree — the subset of summaryClear also clear in the active map: the
//	  block is now referenced by nothing, so its physical home (via the
//	  container map) returns to the aggregate's free pool.
//
// The scan cost in 64-bit words is returned for CPU charging.
func ReclaimSets(victim *fs.File, survivors []*fs.File, active *fs.File, nbits uint64) (summaryClear, fullFree []uint64, words int) {
	for wordStart := uint64(0); wordStart < nbits; wordStart += 64 {
		w := bitmap.Word(victim, wordStart)
		words++
		if w == 0 {
			continue
		}
		for _, s := range survivors {
			w &^= bitmap.Word(s, wordStart)
			words++
			if w == 0 {
				break
			}
		}
		if w == 0 {
			continue
		}
		if wordEnd := wordStart + 64; wordEnd > nbits {
			w &^= ^uint64(0) << (nbits - wordStart)
		}
		act := bitmap.Word(active, wordStart)
		words++
		for rem := w; rem != 0; {
			i := uint64(bits.TrailingZeros64(rem))
			rem &^= 1 << i
			bn := wordStart + i
			summaryClear = append(summaryClear, bn)
			if act&(1<<i) == 0 {
				fullFree = append(fullFree, bn)
			}
		}
	}
	return summaryClear, fullFree, words
}

// RecordAt decodes the inode record for ino out of an inocopy metafile's
// content. ok is false if the inode was not in use at snapshot time.
func RecordAt(inoCopy *fs.File, ino uint64) (fs.Record, bool) {
	fbn, off := fs.RecordLocation(ino)
	buf := inoCopy.Buffer(0, fbn)
	if buf == nil {
		return fs.Record{}, false
	}
	rec := fs.DecodeRecord(buf.Data()[off:])
	if rec.Flags&fs.FlagInUse == 0 || rec.Ino != ino {
		return fs.Record{}, false
	}
	return rec, true
}
