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

	// FreeIdx counts the free VBNs of every (group, drive, AA) region — a
	// region is one AA's run of DBNs on one data drive, AAStripes VBNs —
	// for the infrastructure's AA selection (AAFree). The volumes' indexes
	// are the same type; physical fills scan the activemap itself.
	FreeIdx *bitmap.Index

	vols    []*Volume
	cpCount uint64

	// images is where every file's arrays and every client payload come
	// from, and where the media-only ones go back when the RAID groups let
	// go of them (DESIGN §14). A mounted aggregate starts with an empty one.
	images *fs.ImagePool

	// freed lists the VBNs cleared since the running CP started, cut those
	// cleared before it: the cut's images are forgotten when the running CP
	// commits (ForgetFreed). inCP is true from the cut to that commit.
	freed, cut []block.VBN
	inCP       bool

	// plan is PlanAmapFlush's state, and supers the two arrays the
	// superblock is encoded into by turns (WriteSuperblock): kept across
	// CPs, so a commit builds neither.
	plan      amapPlan
	supers    [2][]byte
	superNext int

	repair RepairStats
}

// RepairStats counts readVBN's fault handling: transient read errors that
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
	a.images = a.newImagePool()
	for gi := 0; gi < cfg.NumGroups; gi++ {
		a.groups = append(a.groups, raid.NewGroup(s, gi, cfg.DataDrives, cfg.Depth, cfg.Profile))
	}
	a.ownMedia()

	total := cfg.TotalBlocks()
	amapBlocks := (total + bitmap.BitsPerBlock - 1) / bitmap.BitsPerBlock
	a.amapFile = a.newMetafile(InoAggrActivemap, fs.HeightFor(amapBlocks+1))
	a.volTable = a.newMetafile(InoAggrVolTable, fs.HeightFor(64))
	a.Activemap = bitmap.New(a.amapFile, total)
	a.indexActivemap()

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

// newImagePool returns an empty image pool whose arrays a's data drives mark
// media-only.
func (a *Aggregate) newImagePool() *fs.ImagePool {
	p := fs.NewImagePool()
	p.SetMarker(a)
	return p
}

// Mark marks vbn media-only if its data drive holds arr's array there
// (storage.Drive.Mark): a buffer has let go of it (fs.Marker).
func (a *Aggregate) Mark(vbn block.VBN, arr []byte) bool {
	if vbn == block.InvalidVBN {
		return false
	}
	g, d, dbn := a.geo.Locate(vbn)
	return a.groups[g].Drive(d).Mark(dbn, arr)
}

// ownMedia makes a's image pool the owner of its RAID groups' media-only
// images.
func (a *Aggregate) ownMedia() {
	for _, g := range a.groups {
		g.SetImages(a.images)
	}
}

// own gives f the aggregate's image pool and returns it.
func (a *Aggregate) own(f *fs.File) *fs.File {
	f.SetImagePool(a.images)
	return f
}

// newMetafile creates a metafile whose arrays come from the aggregate's
// image pool.
func (a *Aggregate) newMetafile(ino uint64, height int) *fs.File {
	return a.own(fs.NewMetafile(ino, height))
}

// ImageStats returns the image pool's counts.
func (a *Aggregate) ImageStats() fs.ImageStats { return a.images.Stats() }

// CheckImages audits the image pool against the data drives
// (fs.ImagePool.Audit). Only when no write is in flight: at Quiesce.
func (a *Aggregate) CheckImages() error {
	files := []*fs.File{a.amapFile, a.volTable}
	for _, v := range a.vols {
		files = append(files, v.Metafiles()...)
		for _, id := range v.snapOrder {
			files = append(files, v.snaps[id].Snapmap, v.snaps[id].InoCopy)
		}
		for _, f := range v.files {
			files = append(files, f)
		}
		files = append(files, v.dropped...)
	}
	return a.images.Audit(files, func(visit func(block.VBN, []byte, bool)) {
		for gi, g := range a.groups {
			for di := 0; di < g.DataDrives(); di++ {
				d := g.Drive(di)
				for dbn := block.DBN(0); dbn < d.Blocks(); dbn++ {
					if img := d.Image(dbn).Bytes; len(img) > 0 {
						visit(a.geo.VBNOf(gi, di, dbn), img, d.MediaOnly(dbn))
					}
				}
			}
		}
	})
}

// indexActivemap hooks the activemap: every cleared VBN joins the freed
// list, and FreeIdx, built word-wise from the map's content, counts every
// transition.
func (a *Aggregate) indexActivemap() {
	a.Activemap.OnChange = func(bn uint64, used bool) {
		if !used {
			a.freed = append(a.freed, block.VBN(bn))
		}
	}
	a.FreeIdx = bitmap.NewIndex(a.Activemap, nil, uint64(a.geo.AAStripes))
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
	a.images.Trim()
}

// ForgetUnreachable takes the media over for an aggregate just mounted from
// crashed media: it clears every data drive's media-only marks, so the
// crashed aggregate's arrays are the garbage collector's — among them those
// of the NVLog records the recovery replays — and a's image pool becomes the
// owner of the arrays marked from here on. Then it drops from the media the
// image of every VBN clear in the activemap, so a recovery starts from media
// holding only what the mounted tree reaches. Not for a live aggregate:
// there a clear VBN may hold a landed write of the running CP, and its marks
// are its pool's.
func (a *Aggregate) ForgetUnreachable() {
	for _, g := range a.groups {
		for di := 0; di < g.DataDrives(); di++ {
			g.Drive(di).ClearMarks()
		}
	}
	a.ownMedia()
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

// AAFree returns the free-block count of (group, aa): the sum of its data
// drives' FreeIdx regions. VBNs run drive-major within a group, so drive d's
// run of AA aa is region (group·DataDrives + d)·AAsPerGroup + aa.
func (a *Aggregate) AAFree(group, aa int) int64 {
	per := a.geo.AAsPerGroup()
	r := group*a.geo.DataDrives*per + aa
	var free int64
	for d := 0; d < a.geo.DataDrives; d++ {
		free += a.FreeIdx.RegionFree(r + d*per)
	}
	return free
}

// SetInjector wires a drive-fault plan into every drive (data and parity)
// of every RAID group. Pass nil to disable injection.
func (a *Aggregate) SetInjector(in storage.Injector) {
	for _, g := range a.groups {
		for i := 0; i < g.DataDrives(); i++ {
			g.Drive(i).SetInjector(in)
		}
		g.ParityDrive().SetInjector(in)
	}
}

// Repairs returns readVBN's fault-repair counters.
func (a *Aggregate) Repairs() RepairStats { return a.repair }

// ReadVBNRaw returns the committed byte image of vbn without timing effects
// (mount/verification path): readVBN, untimed, of an indirect, a metafile
// block or the superblock. Never-written blocks, and blocks held by name,
// return nil.
func (a *Aggregate) ReadVBNRaw(vbn block.VBN) []byte { return a.readVBN(nil, vbn).Bytes }

// ReadImage returns the committed image of vbn by value without timing
// effects: readVBN, untimed. A never-written block is the nil Image.
func (a *Aggregate) ReadImage(vbn block.VBN) block.Image { return a.readVBN(nil, vbn) }

// readVBN is every media read of a committed block. It is subject to
// injected read errors: a failed read is retried once (transient errors
// clear), and a persistent failure is repaired by XOR reconstruction from the
// rest of the RAID stripe. With t the read is timed: t first blocks for the
// drive's service time (ReadSync), and the image is the one that I/O
// returned unless the fault plan fails the read.
//
// Reconstruction is valid for a committed block whose stripe's parity agrees
// with its data, not for one of a stripe a crash tore: such a stripe keeps an
// explicit row of the images its last landed parity write covered
// (raid.Group), so a block of it may reconstruct to other bytes than its own.
// Nothing repairs a torn stripe's parity yet.
func (a *Aggregate) readVBN(t *sim.Thread, vbn block.VBN) block.Image {
	g, d, dbn := a.geo.Locate(vbn)
	drive := a.groups[g].Drive(d)
	var img block.Image
	if t != nil {
		img = drive.ReadSync(t, []block.DBN{dbn})[0]
	}
	b, ok := drive.PeekChecked(dbn)
	if !ok {
		a.repair.Retries++
		if b, ok = drive.PeekChecked(dbn); !ok {
			a.repair.Reconstructs++
			return block.Image{Bytes: a.groups[g].ReconstructBlock(d, dbn)}
		}
	}
	if t != nil {
		return img
	}
	return b
}

// TotalFree returns the aggregate's current free block count (ground truth
// from the activemap; the loosely-accounted global counter shadows this).
func (a *Aggregate) TotalFree() uint64 { return a.Activemap.Free() }

// CrashAll drops in-flight I/O on every drive, modelling power loss, and
// writes off the user L0 images and slot arrays that went down with the
// trees.
func (a *Aggregate) CrashAll() {
	for _, g := range a.groups {
		g.DropInFlight()
	}
	a.images.Abandon()
}

// loadAll mounts metafiles: it gives each the aggregate's image pool and
// eagerly installs every block of its committed tree from the media
// (untimed). A block the tree points at outside the aggregate or never
// written, or an L0 whose image runs past its file's L0 length
// (fs.File.L0Len), is a damaged image: reading stops and the error says
// where.
func (a *Aggregate) loadAll(files ...*fs.File) error {
	for _, f := range files {
		a.own(f)
		var err error
		f.Walk(func(level int, idx block.FBN, vvbn block.VVBN, vbn block.VBN) []byte {
			if err != nil {
				return nil
			}
			var data []byte
			if uint64(vbn) < a.geo.TotalBlocks() {
				data = a.ReadVBNRaw(vbn)
			}
			switch {
			case data == nil:
				err = fmt.Errorf("metafile %d block (level %d, index %d) at %v unreadable", f.Ino(), level, idx, vbn)
			case level == 0 && len(data) > f.L0Len() && len(block.Trim(data)) > f.L0Len():
				err = fmt.Errorf("metafile %d block (level %d, index %d) at %v holds %d bytes, past its %d-byte L0", f.Ino(), level, idx, vbn, len(block.Trim(data)), f.L0Len())
			}
			if err != nil {
				return nil
			}
			f.InstallBuffer(level, idx, block.Image{Bytes: data}, vvbn, vbn)
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
