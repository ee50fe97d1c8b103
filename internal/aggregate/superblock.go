package aggregate

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"wafl/internal/block"
	"wafl/internal/fs"
	"wafl/internal/sim"
	"wafl/internal/storage"
)

// superblock layout (one block at group 0, drive 0, DBN 0):
//
//	0   magic (8)
//	8   cp count (8)
//	16  number of volumes (8)
//	24  activemap metafile record (64)
//	88  volume table metafile record (64)
//	152 .. zero pad ..
//	4088 checksum over [0,4088) (8)
const superMagic = 0x57414c4c_57410001 // "WALL WA" v1

// superSum is the superblock's self-checksum: FNV-1a over the raw bytes
// [0,4088). That is a byte range, not a block image, so block.Checksum —
// which does not count an image's zero tail — is the wrong tool.
func superSum(sb []byte) uint64 {
	h := fnv.New64a()
	h.Write(sb[:block.Size-8])
	return h.Sum64()
}

// encodeSuperblock captures the aggregate's commit state into b, a full
// block, and returns it.
func (a *Aggregate) encodeSuperblock(b []byte) []byte {
	clear(b)
	binary.LittleEndian.PutUint64(b[0:], superMagic)
	binary.LittleEndian.PutUint64(b[8:], a.cpCount)
	binary.LittleEndian.PutUint64(b[16:], uint64(len(a.vols)))
	fs.EncodeRecord(b[24:], a.amapFile.RecordOf(fs.FlagMetafile))
	fs.EncodeRecord(b[88:], a.volTable.RecordOf(fs.FlagMetafile))
	binary.LittleEndian.PutUint64(b[block.Size-8:], superSum(b))
	return b
}

// SuperblockBytes returns the encoded current commit state — the exact
// bytes WriteSuperblock would persist. Determinism tests compare it across
// runs as a compact digest of the committed tree (roots, CP count,
// checksum).
func (a *Aggregate) SuperblockBytes() []byte { return a.encodeSuperblock(block.New()) }

// WriteSuperblock atomically persists the current commit state by
// overwriting the superblock in place — the single non-copy-on-write write
// in the system (paper §II-C). It blocks the calling simulated thread until
// the write I/O completes. Two arrays take turns: the media holds the one
// the previous commit wrote until this write lands, and the other one no
// longer.
func (a *Aggregate) WriteSuperblock(t *sim.Thread) {
	b := a.supers[a.superNext]
	if b == nil {
		b = block.New()
		a.supers[a.superNext] = b
	}
	a.superNext ^= 1
	a.groups[0].Drive(0).WriteSync(t, []storage.WriteReq{{DBN: 0, Data: a.encodeSuperblock(b)}})
}

// MountFrom rebuilds an aggregate's in-memory state from committed media
// after a crash or restart, reusing the old aggregate's RAID groups (the
// media): it reads the superblock, eagerly loads the aggregate metafiles,
// rebinds the activemap (recomputing its free count and FreeIdx), and
// rebuilds every volume with its metafiles. User files are demand-loaded
// from inode records on first access. A damaged image — a bad superblock, a
// metafile block the tree points at but the media never held, a missing
// snapshot entry, a clone whose parent volume the table does not hold — is
// an error, not a panic.
//
// Mount-time reads are untimed: recovery time is not part of any measured
// experiment.
func MountFrom(old *Aggregate) (*Aggregate, error) {
	a := &Aggregate{
		s:       old.s,
		geo:     old.geo,
		profile: old.profile,
		groups:  old.groups,
	}
	a.images = a.newImagePool()
	sb := a.ReadVBNRaw(a.geo.VBNOf(0, 0, 0))
	if sb == nil {
		return nil, fmt.Errorf("aggregate: no superblock on media")
	}
	if got := binary.LittleEndian.Uint64(sb[0:]); got != superMagic {
		return nil, fmt.Errorf("aggregate: bad superblock magic %#x", got)
	}
	if sum := binary.LittleEndian.Uint64(sb[block.Size-8:]); sum != superSum(sb) {
		return nil, fmt.Errorf("aggregate: superblock checksum mismatch")
	}
	a.cpCount = binary.LittleEndian.Uint64(sb[8:])
	nvols := binary.LittleEndian.Uint64(sb[16:])

	var err error
	if a.amapFile, err = fs.DecodeMetafile(sb[24:]); err != nil {
		return nil, fmt.Errorf("aggregate: activemap: %w", err)
	}
	if a.volTable, err = fs.DecodeMetafile(sb[88:]); err != nil {
		return nil, fmt.Errorf("aggregate: volume table: %w", err)
	}
	if err = a.loadAll(a.amapFile, a.volTable); err != nil {
		return nil, fmt.Errorf("aggregate: %w", err)
	}
	if a.Activemap, err = rebind(a.amapFile, a.geo.TotalBlocks()); err != nil {
		return nil, fmt.Errorf("aggregate: %w", err)
	}
	a.indexActivemap()

	for vi := uint64(0); vi < nvols; vi++ {
		fbn := block.FBN(vi / VolEntriesPerBlock)
		buf := a.volTable.Buffer(0, fbn)
		if buf == nil {
			return nil, fmt.Errorf("aggregate: volume table block %d missing", fbn)
		}
		off := (int(vi) % VolEntriesPerBlock) * VolEntrySize
		v, err := a.decodeVolume(buf.Data()[off:])
		if err != nil {
			return nil, fmt.Errorf("aggregate: volume %d: %w", vi, err)
		}
		a.vols = append(a.vols, v)
	}
	if err = a.rebuildCloneGuards(); err != nil {
		return nil, fmt.Errorf("aggregate: %w", err)
	}
	return a, nil
}
