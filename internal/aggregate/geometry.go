// Package aggregate implements the WAFL storage aggregate: a pool of RAID
// groups exposing a physical VBN space, the allocation metafiles that track
// it (activemap, volume table), and the FlexVol volumes carved out of it,
// each with its own virtual VVBN space, container map, inode file, and
// volume activemap. It also implements format, superblock commit, and
// mount-time recovery.
package aggregate

import (
	"fmt"

	"wafl/internal/block"
)

// Geometry describes how the linear VBN space maps onto RAID groups and
// drives. Within a group, each data drive contributes a contiguous run of
// VBNs (drive-major layout), so a bucket — a chunk of consecutive DBNs on
// one drive — is also a contiguous VBN range.
type Geometry struct {
	NumGroups  int       // RAID groups in the aggregate
	DataDrives int       // data drives per group (excluding parity)
	Depth      block.DBN // blocks per drive
	AAStripes  block.DBN // stripes per Allocation Area
}

// Validate checks the geometry for consistency.
func (g Geometry) Validate() error {
	if g.NumGroups < 1 || g.DataDrives < 1 || g.Depth < 1 || g.AAStripes < 1 {
		return fmt.Errorf("aggregate: invalid geometry %+v", g)
	}
	if g.Depth%g.AAStripes != 0 {
		return fmt.Errorf("aggregate: depth %d not a multiple of AA stripes %d", g.Depth, g.AAStripes)
	}
	if g.AAStripes%64 != 0 {
		return fmt.Errorf("aggregate: AA stripes %d not a multiple of 64 (a free-space index region is whole bitmap words)", g.AAStripes)
	}
	return nil
}

// TotalBlocks returns the number of VBNs in the aggregate.
func (g Geometry) TotalBlocks() uint64 {
	return uint64(g.NumGroups) * uint64(g.DataDrives) * uint64(g.Depth)
}

// AAsPerGroup returns the number of Allocation Areas in each RAID group.
func (g Geometry) AAsPerGroup() int { return int(g.Depth / g.AAStripes) }

// groupSpan returns the number of VBNs contributed by one RAID group.
func (g Geometry) groupSpan() uint64 { return uint64(g.DataDrives) * uint64(g.Depth) }

// Locate maps a VBN to its (group, data drive, dbn) location.
func (g Geometry) Locate(vbn block.VBN) (group, drive int, dbn block.DBN) {
	v := uint64(vbn)
	if v >= g.TotalBlocks() {
		panic(fmt.Sprintf("aggregate: vbn %d out of range %d", v, g.TotalBlocks()))
	}
	span := g.groupSpan()
	group = int(v / span)
	rem := v % span
	drive = int(rem / uint64(g.Depth))
	dbn = block.DBN(rem % uint64(g.Depth))
	return group, drive, dbn
}

// VBNOf maps a (group, drive, dbn) location to its VBN.
func (g Geometry) VBNOf(group, drive int, dbn block.DBN) block.VBN {
	return block.VBN(uint64(group)*g.groupSpan() + uint64(drive)*uint64(g.Depth) + uint64(dbn))
}

// AARange returns the DBN range [start, end) of Allocation Area aa.
func (g Geometry) AARange(aa int) (start, end block.DBN) {
	start = block.DBN(aa) * g.AAStripes
	return start, start + g.AAStripes
}
