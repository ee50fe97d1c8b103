package wafl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// goldenScenario runs a fixed mixed workload (writes, creates, deletes,
// snapshot churn, reads) on a traced small system and returns digests of
// everything that must not change across refactors: the committed
// superblock bytes, the full trace-event stream, and the event count.
//
// The golden constants below were captured on the single-aggregate code
// BEFORE the Member/Cluster split (PR 6). With Members = 1 the cluster
// must be bit-identical to the pre-refactor system: same superblock, same
// trace stream, same event count. Any drift here means the refactor
// changed simulation behavior, not just structure.
func goldenScenario(t *testing.T, cfg Config) (superSHA, traceSHA string, events uint64) {
	t.Helper()
	cfg.Trace = true
	cfg.PayloadBytes = 512
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()

	base := make([]uint64, 4)
	for i := range base {
		base[i] = sys.CreateFileDirect(i%cfg.Volumes, 512)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 4; i++ {
		i := i
		vol := i % cfg.Volumes
		ino := base[i]
		sys.ClientThread("golden", func(c *ClientCtx) {
			var mine []uint64
			var snap uint64
			for op := 0; op < 120 && c.Alive(); op++ {
				switch {
				case op%40 == 39 && vol == 0:
					if snap == 0 {
						snap = c.SnapCreate(vol)
					} else {
						c.SnapDelete(vol, snap)
						snap = 0
					}
				case op%10 == 7:
					f := c.Create(vol, 32)
					c.Write(vol, f, 0, 2)
					mine = append(mine, f)
				case op%10 == 8 && len(mine) > 0:
					c.Delete(vol, mine[0])
					mine = mine[1:]
				case op%10 == 9:
					c.Read(vol, ino, FBN(c.Rand(500)), 2)
				default:
					c.Write(vol, ino, FBN(c.Rand(500)), 1+int(c.Rand(3)))
				}
			}
			done++
		})
	}
	for i := 0; i < 64 && done < 4; i++ {
		sys.Run(100 * Millisecond)
	}
	if done < 4 {
		t.Fatal("golden workload did not finish")
	}
	if err := sys.Quiesce(); err != nil {
		t.Fatal(err)
	}

	sh := sha256.Sum256(sys.SuperblockBytes())
	th := sha256.New()
	var buf [8]byte
	for _, e := range sys.Tracer().Events() {
		binary.LittleEndian.PutUint64(buf[:], uint64(e.Start))
		th.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(e.Dur))
		th.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(e.Arg))
		th.Write(buf[:])
		th.Write([]byte{byte(e.Pid), byte(e.Tid), byte(e.Ph)})
		th.Write([]byte(e.Name))
	}
	return hex.EncodeToString(sh[:]), hex.EncodeToString(th.Sum(nil)), sys.Events()
}

// Golden digests captured on the pre-refactor single-aggregate code (seed
// of PR 6). See goldenScenario.
const (
	goldenSuperSHA = "738a1d30506744024767acaae2e0a80ea5bbba0b1a291b793bfd781da853e86d"
	goldenTraceSHA = "c4f1ca6aeac20e897f3cb3bc03d305287eeae446a8bca271df73fb600002330f"
	goldenEvents   = 9225
)

// TestMembers1BitIdenticalToSeed locks the Members=1 cluster to the exact
// pre-refactor behavior: trace stream, superblock bytes, and event count
// must all match the golden digests captured before the Member/Cluster
// split.
func TestMembers1BitIdenticalToSeed(t *testing.T) {
	super, trace, events := goldenScenario(t, smallConfig())
	if super != goldenSuperSHA {
		t.Errorf("superblock digest drifted from pre-refactor golden:\n got %s\nwant %s", super, goldenSuperSHA)
	}
	if trace != goldenTraceSHA {
		t.Errorf("trace digest drifted from pre-refactor golden:\n got %s\nwant %s", trace, goldenTraceSHA)
	}
	if events != goldenEvents {
		t.Errorf("event count drifted from pre-refactor golden: got %d want %d", events, goldenEvents)
	}
}

// allocatorModes is one row per core.Options ablation (plus the clone and
// two-member layouts): the digests of goldenScenario under that mode,
// captured at the parent of the PR that folded the physical and virtual
// allocation spaces into one type. A refactor of the allocator must leave
// every row unchanged; a deliberate behaviour change re-captures exactly the
// rows it owns and says so.
var allocatorModes = []struct {
	name         string
	mutate       func(*Config)
	super, trace string
	events       uint64
}{
	{"infra-serial", func(c *Config) { c.Allocator.InfraParallel = false },
		"738a1d30506744024767acaae2e0a80ea5bbba0b1a291b793bfd781da853e86d",
		"968b36e1a06aa065b3246a657af7ae71989c41ea47d40dfbdde8febfa1dfd97c", 12954},
	{"one-cleaner", func(c *Config) { c.Allocator.MaxCleaners, c.Allocator.InitialCleaners = 1, 1 },
		"e8b208bf6af8bd935e1e780632f14732281974b683a244264898a1a0ea09f900",
		"92e1fcb631353ec058305cb016b7100ae73eb17df65cf68d9b7dac9f35048a51", 8417},
	{"equal-progress-off", func(c *Config) { c.Allocator.EqualProgress = false },
		"71da01bace6b6a2a0aed86535479cf55089e270fa79d76721a39487ca23fd727",
		"639975bc4de1d62ec001f111193f68d1d27ef6c59133621fa61b86f5b52990c7", 9179},
	{"loose-off", func(c *Config) { c.Allocator.LooseAccounting = false },
		"738a1d30506744024767acaae2e0a80ea5bbba0b1a291b793bfd781da853e86d",
		"e03309d2a928b36d0f3193e9ac52ca43253edaaada272373c8720f648deceac6", 11267},
	{"parallelcp-off", func(c *Config) { c.Allocator.ParallelCP = false },
		"738a1d30506744024767acaae2e0a80ea5bbba0b1a291b793bfd781da853e86d",
		"ea258d5e9f2ce3cb70c54f4a714abf98b0e8944ccf1768f6cfff1d2e6326f837", 9032},
	{"first-fit", func(c *Config) { c.Allocator.AASelection = AAFirstFit },
		"3e417b640ae51cee465b7792813847f1b98b12c43c476b05c3568f0999f32e45",
		"8fb03e3c1f9ae7ab8b57e87a10ef2ef98c7ade5ab1417fd8724ca8e093edc12e", 9892},
	{"round-robin", func(c *Config) { c.Allocator.AASelection = AARoundRobin },
		"6131f3ec7cc722b7df256359d7f649d1176c9668566a45df624df86e26a2861e",
		"1f09b3e16a1399e87a8b8993f7dd7847223d09b1876e71c931b384f73a12d552", 9225},
	{"chunk-8", func(c *Config) { c.Allocator.ChunkBlocks = 8 },
		"7aa1636681c4853e089780fd21330d04b5421eb490e2aab82ac6f466ad4b8b01",
		"8e0bab5d1274ea1cfb6615eab9b228d751e0e4d9ab722385c0be786c53bc973d", 12500},
	{"batched", func(c *Config) { c.Allocator.BatchedCleaning = true },
		"e8b208bf6af8bd935e1e780632f14732281974b683a244264898a1a0ea09f900",
		"57134e4fb581cbf24ef68a32e7c81d69a750d6160508844cc780e6f2b7cca81c", 8910},
	{"dynamic", func(c *Config) { c.Allocator.Dynamic, c.Allocator.InitialCleaners = true, 1 },
		"e8b208bf6af8bd935e1e780632f14732281974b683a244264898a1a0ea09f900",
		"ab5dc5f8967c2619e62e12f1820f133fe0171790e792d2acc236c983a6fb8d44", 9409},
	{"clones", func(c *Config) { c.CloneSlots = 2 },
		"81f91cd0bdbb7b3df44c005b80ece7080b9c7ac557cb0cf35b4d6e450e29cf9c",
		"a0a9d2dcea106da00d82250e58480f81381be0d0ad8036be9db34ae34b0a9f52", 9275},
	{"members2", func(c *Config) { c.Members = 2 },
		"1d1c381e1e7f37154a2041d6dd3b85bc0b133101118919e2f8ed8c283819f34c",
		"0571b3534a263023b97a425ae2c7570c066aba2c3dd7a04c69062536c977ab61", 9639},
}

// TestAllocatorModesBitIdentical pins every allocator mode the way
// TestMembers1BitIdenticalToSeed pins the default one.
func TestAllocatorModesBitIdentical(t *testing.T) {
	for _, m := range allocatorModes {
		t.Run(m.name, func(t *testing.T) {
			cfg := smallConfig()
			m.mutate(&cfg)
			super, trace, events := goldenScenario(t, cfg)
			if super != m.super || trace != m.trace || events != m.events {
				t.Errorf("digests drifted:\n got super %s trace %s events %d\nwant super %s trace %s events %d",
					super, trace, events, m.super, m.trace, m.events)
			}
		})
	}
}
