package fs

import (
	"encoding/binary"
	"fmt"

	"wafl/internal/block"
)

// RecordSize is the on-disk size of a serialized inode record.
const RecordSize = 64

// RecordsPerBlock is the number of inode records per inode-file block.
const RecordsPerBlock = block.Size / RecordSize

// Record is the persistent form of an inode: what the inode file stores.
type Record struct {
	Ino        uint64
	SizeBlocks uint64
	Height     uint32
	Flags      uint32
	RootVVBN   block.VVBN
	RootVBN    block.VBN
	Gen        uint64
}

// Record flags.
const (
	FlagInUse uint32 = 1 << iota
	FlagMetafile
)

// EncodeRecord serializes r into dst (at least RecordSize bytes).
func EncodeRecord(dst []byte, r Record) {
	binary.LittleEndian.PutUint64(dst[0:], r.Ino)
	binary.LittleEndian.PutUint64(dst[8:], r.SizeBlocks)
	binary.LittleEndian.PutUint32(dst[16:], r.Height)
	binary.LittleEndian.PutUint32(dst[20:], r.Flags)
	binary.LittleEndian.PutUint64(dst[24:], uint64(r.RootVVBN))
	binary.LittleEndian.PutUint64(dst[32:], uint64(r.RootVBN))
	binary.LittleEndian.PutUint64(dst[40:], r.Gen)
	for i := 48; i < RecordSize; i++ {
		dst[i] = 0
	}
}

// DecodeRecord deserializes a record from src. Like every image, src may be
// short: bytes past its end read as zero.
func DecodeRecord(src []byte) Record {
	var r [RecordSize]byte
	copy(r[:], src)
	return Record{
		Ino:        binary.LittleEndian.Uint64(r[0:]),
		SizeBlocks: binary.LittleEndian.Uint64(r[8:]),
		Height:     binary.LittleEndian.Uint32(r[16:]),
		Flags:      binary.LittleEndian.Uint32(r[20:]),
		RootVVBN:   block.VVBN(binary.LittleEndian.Uint64(r[24:])),
		RootVBN:    block.VBN(binary.LittleEndian.Uint64(r[32:])),
		Gen:        binary.LittleEndian.Uint64(r[40:]),
	}
}

// RecordLocation returns the inode-file FBN and the byte offset within that
// block where inode ino's record lives.
func RecordLocation(ino uint64) (block.FBN, int) {
	return block.FBN(ino / RecordsPerBlock), int(ino%RecordsPerBlock) * RecordSize
}

// RecordOf captures f's current persistent state as a record.
func (f *File) RecordOf(flags uint32) Record {
	return Record{
		Ino:        f.ino,
		SizeBlocks: uint64(f.size),
		Height:     uint32(f.height),
		Flags:      flags | FlagInUse,
		RootVVBN:   f.RootVVBN,
		RootVBN:    f.RootVBN,
		Gen:        f.Gen,
	}
}

// FileFromRecord reconstructs a file's skeleton from its record (mount
// path); buffers are demand-loaded later. A record of a tree height no file
// can have is an error: the record came off the media. FlagMetafile makes
// the file a metafile, as NewMetafile does: its L0s are CP-owned images.
func FileFromRecord(r Record) (*File, error) {
	if r.Height < 1 || r.Height > MaxHeight {
		return nil, fmt.Errorf("ino %d: record of tree height %d", r.Ino, r.Height)
	}
	f := NewFile(r.Ino, int(r.Height))
	f.size = block.FBN(r.SizeBlocks)
	f.metafile = r.Flags&FlagMetafile != 0
	f.RootVVBN = r.RootVVBN
	f.RootVBN = r.RootVBN
	f.Gen = r.Gen
	return f, nil
}

// DecodeMetafile decodes src as a metafile's record and reconstructs the
// file (DecodeRecord, then FileFromRecord). A record without FlagMetafile is
// damage, an error: the file's short L0s would be adopted unpadded, and the
// metafile decoders index whole images.
func DecodeMetafile(src []byte) (*File, error) {
	r := DecodeRecord(src)
	if r.Flags&FlagMetafile == 0 {
		return nil, fmt.Errorf("ino %d: metafile record without FlagMetafile", r.Ino)
	}
	return FileFromRecord(r)
}
