package aggregate

import (
	"fmt"
	"math/bits"

	"wafl/internal/bitmap"
	"wafl/internal/block"
	"wafl/internal/fs"
	"wafl/internal/raid"
	"wafl/internal/sim"
	"wafl/internal/storage"
)

// Well-known inode numbers for aggregate-level metafiles. Their records are
// stored in the superblock, the root of trust.
const (
	InoAggrActivemap = 1
	InoAggrVolTable  = 2
)

// Config describes an aggregate to create.
type Config struct {
	Geometry
	Profile storage.Profile
}

// DefaultGeometry mirrors the paper's mid-range testbed shape at simulation
// scale: two RAID groups of four data drives plus parity (Fig 3 shows a
// five-data-drive aggregate across two groups).
var DefaultGeometry = Geometry{
	NumGroups:  2,
	DataDrives: 4,
	Depth:      32768,
	AAStripes:  2048,
}

// Aggregate is a shared pool of RAID groups hosting FlexVol volumes.
type Aggregate struct {
	s       *sim.Scheduler
	geo     Geometry
	profile storage.Profile
	groups  []*raid.Group

	// Activemap tracks physical VBN allocation; its backing metafile's
	// blocks live in the aggregate itself.
	Activemap *bitmap.Activemap
	amapFile  *fs.File
	volTable  *fs.File

	// aaFree[group][aa] is the count of free data blocks in each
	// Allocation Area, maintained incrementally from activemap changes
	// and used by the infrastructure's AA selection (most-free wins).
	aaFree [][]int64

	vols    []*Volume
	cpCount uint64

	// freed lists the VBNs cleared since the running CP started, cut those
	// cleared before it: the cut's images are forgotten when the running CP
	// commits (ForgetFreed). inCP is true from the cut to that commit.
	freed, cut []block.VBN
	inCP       bool

	// inj, when set, is the drive-fault plan wired into every drive; the
	// aggregate keeps it to survive MountFrom and to report repair stats.
	inj    storage.Injector
	repair RepairStats
}

// RepairStats counts ReadVBNRaw fault handling: transient read errors that
// succeeded on retry, and persistent errors repaired from RAID parity.
type RepairStats struct {
	Retries      uint64
	Reconstructs uint64
}

// New formats a fresh aggregate: builds the RAID groups, the activemap and
// volume-table metafiles, and reserves the superblock stripe.
func New(s *sim.Scheduler, cfg Config) (*Aggregate, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Aggregate{s: s, geo: cfg.Geometry, profile: cfg.Profile}
	for gi := 0; gi < cfg.NumGroups; gi++ {
		a.groups = append(a.groups, raid.NewGroup(s, gi, cfg.DataDrives, cfg.Depth, cfg.Profile))
	}

	total := cfg.TotalBlocks()
	amapBlocks := (total + bitmap.BitsPerBlock - 1) / bitmap.BitsPerBlock
	a.amapFile = fs.NewFile(InoAggrActivemap, fs.HeightFor(amapBlocks+1))
	a.volTable = fs.NewFile(InoAggrVolTable, fs.HeightFor(64))
	a.Activemap = bitmap.New(a.amapFile, total)

	a.initAAFree()
	a.Activemap.OnChange = a.onBitChange

	// Reserve DBN 0 on every data drive: (group 0, drive 0, 0) holds the
	// superblock; the rest are reserved for symmetry so that stripe 0 is
	// never allocated. Set dirties the covering activemap blocks, so the
	// reservations persist in the first CP.
	for gi := 0; gi < cfg.NumGroups; gi++ {
		for di := 0; di < cfg.DataDrives; di++ {
			a.Activemap.Set(uint64(a.geo.VBNOf(gi, di, 0)))
		}
	}
	return a, nil
}

func (a *Aggregate) initAAFree() {
	a.aaFree = make([][]int64, a.geo.NumGroups)
	per := int64(a.geo.BlocksPerAA())
	for gi := range a.aaFree {
		a.aaFree[gi] = make([]int64, a.geo.AAsPerGroup())
		for aa := range a.aaFree[gi] {
			a.aaFree[gi][aa] = per
		}
	}
}

func (a *Aggregate) onBitChange(bn uint64, used bool) {
	g, _, dbn := a.geo.Locate(block.VBN(bn))
	aa := a.geo.AAOf(dbn)
	if used {
		a.aaFree[g][aa]--
	} else {
		a.aaFree[g][aa]++
		a.freed = append(a.freed, block.VBN(bn))
	}
}

// StartCP cuts the freed list as a consistency point starts: the VBNs
// cleared so far are free in the tree this CP commits.
func (a *Aggregate) StartCP() {
	a.cut, a.freed = a.freed, a.cut[:0]
	a.inCP = true
}

// ForgetFreed drops from the media, once the running CP's superblock has
// landed, the image of every VBN its StartCP cut that is still clear. No
// committed tree reaches one any more (paper §II-C: the committed tree is the
// only reader, and free = !active && !summary): it was free in the previous
// CP's tree and is in this one. The VBNs this CP cleared wait for the next
// commit, so the previous superblock's tree stays whole one CP longer.
func (a *Aggregate) ForgetFreed() {
	for _, vbn := range a.cut {
		if !a.Activemap.IsSet(uint64(vbn)) {
			g, d, dbn := a.geo.Locate(vbn)
			a.groups[g].Forget(d, dbn)
		}
	}
	a.cut = a.cut[:0]
	a.inCP = false
}

// ForgetUnreachable drops from the media the image of every VBN clear in the
// activemap, so a recovery starts from media holding only what the mounted
// tree reaches. Only for an aggregate just mounted from crashed media: on a
// live one, a clear VBN may hold a landed write of the running CP.
func (a *Aggregate) ForgetUnreachable() {
	total := a.geo.TotalBlocks()
	for ws := uint64(0); ws < total; ws += 64 {
		free := ^bitmap.Word(a.amapFile, ws)
		if n := total - ws; n < 64 {
			free &= 1<<n - 1
		}
		for ; free != 0; free &= free - 1 {
			g, d, dbn := a.geo.Locate(block.VBN(ws + uint64(bits.TrailingZeros64(free))))
			a.groups[g].Forget(d, dbn)
		}
	}
}

// Sched returns the simulation scheduler.
func (a *Aggregate) Sched() *sim.Scheduler { return a.s }

// Geometry returns the aggregate's geometry.
func (a *Aggregate) Geometry() Geometry { return a.geo }

// Group returns RAID group gi.
func (a *Aggregate) Group(gi int) *raid.Group { return a.groups[gi] }

// Groups returns the number of RAID groups.
func (a *Aggregate) Groups() int { return len(a.groups) }

// AmapFile returns the activemap's backing metafile.
func (a *Aggregate) AmapFile() *fs.File { return a.amapFile }

// VolTableFile returns the volume-table metafile.
func (a *Aggregate) VolTableFile() *fs.File { return a.volTable }

// CPCount returns the number of completed consistency points.
func (a *Aggregate) CPCount() uint64 { return a.cpCount }

// SetCPCount is used by the CP engine after a successful commit.
func (a *Aggregate) SetCPCount(n uint64) { a.cpCount = n }

// Volumes returns the aggregate's volumes.
func (a *Aggregate) Volumes() []*Volume { return a.vols }

// Volume returns volume vi.
func (a *Aggregate) Volume(vi int) *Volume { return a.vols[vi] }

// AAFree returns the free-block count of (group, aa).
func (a *Aggregate) AAFree(group, aa int) int64 { return a.aaFree[group][aa] }

// SetInjector wires a drive-fault plan into every drive (data and parity)
// of every RAID group. Pass nil to disable injection.
func (a *Aggregate) SetInjector(in storage.Injector) {
	a.inj = in
	for _, g := range a.groups {
		for i := 0; i < g.DataDrives(); i++ {
			g.Drive(i).SetInjector(in)
		}
		g.ParityDrive().SetInjector(in)
	}
}

// Injector returns the wired drive-fault plan, or nil.
func (a *Aggregate) Injector() storage.Injector { return a.inj }

// Repairs returns the ReadVBNRaw fault-repair counters.
func (a *Aggregate) Repairs() RepairStats { return a.repair }

// ReadVBNRaw returns the committed media content of vbn without timing
// effects (mount/verification path). Never-written blocks return nil.
//
// This is the OS-visible read path, so it is subject to injected read
// errors: a failed read is retried once (transient errors clear), and a
// persistent failure is repaired by XOR reconstruction from the rest of the
// RAID stripe — valid because this path only ever reads committed blocks,
// whose stripes have consistent parity.
func (a *Aggregate) ReadVBNRaw(vbn block.VBN) []byte {
	g, d, dbn := a.geo.Locate(vbn)
	drive := a.groups[g].Drive(d)
	b, ok := drive.PeekChecked(dbn)
	if ok {
		return b
	}
	a.repair.Retries++
	if b, ok = drive.PeekChecked(dbn); ok {
		return b
	}
	a.repair.Reconstructs++
	return a.groups[g].ReconstructBlock(d, dbn)
}

// ReadVBN performs a timed single-block read of vbn, blocking the calling
// simulated thread for the drive service time.
func (a *Aggregate) ReadVBN(t *sim.Thread, vbn block.VBN) []byte {
	g, d, dbn := a.geo.Locate(vbn)
	bs := a.groups[g].Drive(d).ReadSync(t, []block.DBN{dbn})
	return bs[0]
}

// TotalFree returns the aggregate's current free block count (ground truth
// from the activemap; the loosely-accounted global counter shadows this).
func (a *Aggregate) TotalFree() uint64 { return a.Activemap.Free() }

// CrashAll drops in-flight I/O on every drive, modelling power loss.
func (a *Aggregate) CrashAll() {
	for _, g := range a.groups {
		g.DropInFlight()
	}
}

// loadAll eagerly installs every block of each file's committed tree from
// the media (untimed; mount path). A block the tree points at outside the
// aggregate or never written is a damaged image: reading stops and the error
// says where.
func (a *Aggregate) loadAll(files ...*fs.File) error {
	for _, f := range files {
		var err error
		f.Walk(func(level int, idx block.FBN, vvbn block.VVBN, vbn block.VBN) []byte {
			if err != nil {
				return nil
			}
			var data []byte
			if uint64(vbn) < a.geo.TotalBlocks() {
				data = a.ReadVBNRaw(vbn)
			}
			if data == nil {
				err = fmt.Errorf("metafile %d block (level %d, index %d) at %v unreadable", f.Ino(), level, idx, vbn)
				return nil
			}
			f.InstallBuffer(level, idx, data, vvbn, vbn)
			return data
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// rebind rebuilds the activemap of nbits bits a mounted bitmap metafile
// holds; a metafile too small for the space, or with a bit set past its end,
// is a damaged image.
func rebind(f *fs.File, nbits uint64) (*bitmap.Activemap, error) {
	if f.MaxBlocks()*bitmap.BitsPerBlock < nbits {
		return nil, fmt.Errorf("bitmap metafile %d of %d blocks cannot hold %d bits", f.Ino(), f.MaxBlocks(), nbits)
	}
	if r := nbits % bitmap.BitsPerBlock; r != 0 {
		if buf := f.Buffer(0, bitmap.BlockOf(nbits)); buf != nil {
			d, i := buf.Data(), int(r/8)
			if len(block.Trim(d)) > i+1 || i < len(d) && d[i]>>(r%8) != 0 {
				return nil, fmt.Errorf("bitmap metafile %d has bits set past its %d", f.Ino(), nbits)
			}
		}
	}
	return bitmap.Rebind(f, nbits), nil
}
