package wafl

// The architecture rules: what the tree must keep true that no unit test of
// behaviour would notice — one path per operation, one oracle, one stats
// spine, one allocation space, one owner of the on-media tree, and no option
// or export that nothing uses.
// They are rows of one table (archRules), checked over the parsed source
// (go/parser, no type information: every match is by name), and every row
// carries the small violating trees that prove it still bites. The next rule
// is a row here, not a Makefile target.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// tree is the non-test Go source of a repository, parsed: slash-separated
// path relative to the root → file.
type tree struct {
	fset  *token.FileSet
	files map[string]*ast.File
}

// parseTree parses sources (path → content) into a tree, test files apart.
func parseTree(t *testing.T, sources map[string]string) *tree {
	t.Helper()
	tr := &tree{fset: token.NewFileSet(), files: map[string]*ast.File{}}
	for p, src := range sources {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(tr.fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		tr.files[p] = f
	}
	return tr
}

// loadTree reads every .go file under root, skipping dot directories.
func loadTree(t *testing.T, root string) *tree {
	t.Helper()
	sources := map[string]string{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		sources[filepath.ToSlash(rel)] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return parseTree(t, sources)
}

// in returns, sorted, the paths of the files a scan list selects: "." is the
// facade (the files of the root directory), "..." every file, a directory
// everything beneath it, a file path that file.
func (tr *tree) in(scan ...string) []string {
	var out []string
	for p := range tr.files {
		for _, s := range scan {
			if p == s || s == "..." || (s == "." && !strings.Contains(p, "/")) || strings.HasPrefix(p, s+"/") {
				out = append(out, p)
				break
			}
		}
	}
	slices.Sort(out)
	return out
}

// each calls fn for every node of type N in the files scan selects.
func each[N ast.Node](tr *tree, scan []string, fn func(file string, n N)) {
	for _, p := range tr.in(scan...) {
		ast.Inspect(tr.files[p], func(n ast.Node) bool {
			if v, ok := n.(N); ok {
				fn(p, v)
			}
			return true
		})
	}
}

// at formats a violation at node n.
func (tr *tree) at(n ast.Node, format string, args ...any) string {
	pos := tr.fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, fmt.Sprintf(format, args...))
}

// clause forbids a kind of node in the files it scans, the exempt ones apart;
// both are scan lists (see in).
type clause struct {
	scan   []string
	except []string
	forbid func(ast.Node) bool
	msg    string
}

// archRule is one architecture rule: clauses that forbid, a require for what
// no single node shows (a count, a set, a cross-reference), and the negative
// tests — trees on which the rule must report a violation containing want.
type archRule struct {
	name    string
	clauses []clause
	require func(*tree) []string
	bad     []badTree
}

type badTree struct {
	files map[string]string
	want  string
}

// check returns the rule's violations on tr.
func (r archRule) check(tr *tree) []string {
	var out []string
	for _, c := range r.clauses {
		exempt := tr.in(c.except...)
		each(tr, c.scan, func(file string, n ast.Node) {
			if !slices.Contains(exempt, file) && c.forbid(n) {
				out = append(out, tr.at(n, "%s", c.msg))
			}
		})
	}
	if r.require != nil {
		out = append(out, r.require(tr)...)
	}
	return out
}

// lastName is the final name of a (possibly qualified) expression: x → x,
// a.b.x → x, anything else "".
func lastName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	}
	return ""
}

// callOn matches a method call recv.name(...) with name in names and, when
// recvs is non-nil, recv's last name in recvs.
func callOn(recvs []string, names ...string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && slices.Contains(names, sel.Sel.Name) && (recvs == nil || slices.Contains(recvs, lastName(sel.X)))
	}
}

// indexOf matches x.name[...] and name[...].
func indexOf(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		return ok && lastName(ix.X) == name
	}
}

// imports matches an import of pkg.
func imports(pkg string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		spec, ok := n.(*ast.ImportSpec)
		return ok && spec.Path.Value == strconv.Quote(pkg)
	}
}

// identLike matches an identifier containing a match of re.
func identLike(re string) func(ast.Node) bool {
	rx := regexp.MustCompile(re)
	return func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && rx.MatchString(id.Name)
	}
}

// getOrNew matches a hand-rolled free list's get: a fifo.Queue popped when it
// is not empty, and otherwise something new built — `if q.Len() > 0 { v =
// q.Pop() } else { ... }`, or `if q.Len() > 0 { return q.Pop() }` with the
// new one after it.
func getOrNew(n ast.Node) bool {
	is, ok := n.(*ast.IfStmt)
	if !ok || len(is.Body.List) != 1 {
		return false
	}
	cond, ok := is.Cond.(*ast.BinaryExpr)
	if !ok || !callOn(nil, "Len")(cond.X) {
		return false
	}
	var pop ast.Expr
	switch s := is.Body.List[0].(type) {
	case *ast.ReturnStmt:
		if len(s.Results) == 1 {
			pop = s.Results[0]
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 && is.Else != nil {
			pop = s.Rhs[0]
		}
	}
	if pop == nil || !callOn(nil, "Pop")(pop) {
		return false
	}
	queue := func(call ast.Expr) string { return lastName(call.(*ast.CallExpr).Fun.(*ast.SelectorExpr).X) }
	return queue(pop) == queue(cond.X)
}

// leadingMinusOne matches a call passing a literal -1 ahead of another
// argument.
func leadingMinusOne(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	for i, arg := range call.Args {
		u, ok := arg.(*ast.UnaryExpr)
		if !ok || u.Op != token.SUB || i == len(call.Args)-1 {
			continue
		}
		if lit, ok := u.X.(*ast.BasicLit); ok && lit.Value == "1" {
			return true
		}
	}
	return false
}

// The volume request methods: the whole mutating surface of
// aggregate.Volume that a namespace operation goes through.
var volOps = []string{"CreateFileAt", "DeleteFile", "RequestSnapshot", "DeleteSnapshot",
	"RequestRestore", "RequestCloneBind", "AddCloneRef", "StartSplit"}

// System's stats accessors, by name pattern and in full: Stats and MemberStats
// are the spine, CloneStats and the two reports are not counters, and the rest
// are the views bench/child.go still reads.
var (
	statAccessor = regexp.MustCompile(`(Stats|Counters|Report)$`)
	statMethods  = []string{"AdmissionStats", "BCacheStats", "CPPhaseReport", "CPStats",
		"CloneStats", "Counters", "MemberStats", "Stats", "TraceReport"}
)

// traffic is where configurations are made: the experiment registry, the
// repository benchmark, the commands and the workload generators.
var traffic = []string{"harness", "bench", "cmd", "workload"}

// knobAllow lists the configuration fields no traffic file assigns, with why
// each stays a field.
var knobAllow = map[string]string{
	"Allocator": "set field-wise (cfg.Allocator.X = ...), never as a whole",
	"Costs":     "the calibration table of DESIGN.md §5, which explaining §V-C (ROADMAP item 1(c)) may need to vary",
}

// exportAllow lists the exported functions no non-test file names, with the
// cross-package test that needs each exported.
var exportAllow = map[string]string{
	"aggregate.Volume.CreateFile":       "internal/core and internal/cp tests create files without choosing an inode number",
	"raid.Group.VerifyStripe":           "internal/core tests check parity of the stripes a tetris wrote",
	"fs.File.DirtyCount":                "internal/cp tests check a file is clean after a CP",
	"bitmap.Index.CorruptFreeWord":      "freeindex_test.go proves fsck catches a bad summary bit",
	"bitmap.Index.CorruptRegionCounter": "freeindex_test.go proves fsck catches a bad region counter",
	"faultinject.Injector.FailBlock":    "crash_test.go forces RAID reconstruction of one block",
	"storage.Device.InflightMultiBlock": "crash_test.go waits for a tearable write before crashing",
	"sim.Scheduler.Live":                "internal/cp tests check the engine thread survives",
	"wafl.Stats.Each":                   "stats_test.go and cluster_test.go enumerate every leaf; ROADMAP item 4(c)'s wafltop -json is its first caller",
	"wafl.System.MemberStats":           "cluster, placement, results and stats tests read one member's Stats",
	"wafl.System.FsckMember":            "cluster_test.go checks one member of a cluster",
	"wafl.System.VolFreeBlocks":         "parallelcp_test.go compares the loose counter with the bitmap",
	"wafl.ClientCtx.CreatePlaced":       "placement_test.go and cluster_test.go drive capacity-aware placement",
	"wafl.ClientCtx.SnapRead":           "snap_test.go; ROADMAP item 3(f) makes it the model's ninth op kind",
	"wafl.System.TunerSamples":          "example_test.go's Example_dynamicTuning prints the tuner's decision trace",
}

var archRules = []archRule{
	{
		// Single-point member resolution: everything else routes through the
		// Member helpers (volAffs, stripeAff, logicalAff).
		name: "aff",
		clauses: []clause{{
			scan: []string{"."}, except: []string{"member.go"}, forbid: indexOf("Aggrs"),
			msg: "h.Aggrs[...] indexed outside member.go: use the Member helpers",
		}},
		bad: []badTree{{
			files: map[string]string{"client.go": `package wafl; func f(m *Member) { _ = m.h.Aggrs[0] }`},
			want:  "client.go:1: h.Aggrs[...] indexed outside member.go",
		}},
	},
	{
		// One path per namespace operation: Member.apply, which the client
		// ops, their *Direct entries and NVRAM replay all go through.
		name: "op",
		clauses: []clause{{
			scan: []string{"."}, except: []string{"member.go"}, forbid: callOn(nil, append([]string{"CreateFile"}, volOps...)...),
			msg: "volume request method called outside member.go: go through Member.apply",
		}},
		require: func(tr *tree) []string {
			calls := map[string]int{}
			each(tr, []string{"member.go"}, func(_ string, n *ast.CallExpr) {
				calls[lastName(n.Fun)]++
			})
			var out []string
			for _, op := range volOps {
				if calls[op] != 1 {
					out = append(out, fmt.Sprintf("member.go calls %s %d times, want 1", op, calls[op]))
				}
			}
			return out
		},
		bad: []badTree{{
			files: map[string]string{"client.go": `package wafl; func f(v *V) { v.DeleteFile(1) }`},
			want:  "client.go:1: volume request method called outside member.go",
		}, {
			files: map[string]string{"member.go": `package wafl; func f(v *V) { v.StartSplit(); v.StartSplit() }`},
			want:  "member.go calls StartSplit 2 times",
		}},
	},
	{
		// One oracle: content and existence probes belong to the reference
		// model (internal/nsmodel.Verify).
		name: "model",
		clauses: []clause{{
			scan:   []string{"harness"},
			forbid: callOn(nil, "VerifyAgainst", "SnapVerifyAgainst", "VerifyRead", "FileExists", "SnapshotExists"),
			msg:    "oracle probe called under harness/: verify through nsmodel.Verify",
		}},
		bad: []badTree{{
			files: map[string]string{"harness/sweep.go": `package harness; func f(s S) { s.FileExists(0, 1) }`},
			want:  "harness/sweep.go:1: oracle probe called under harness/",
		}},
	},
	{
		// One stats spine (wafl.Stats, stats.go): a window's deltas are
		// Results.Stats, a new counter is a field of its layer's struct, and
		// the reflective fold never runs on a path a simulated event takes.
		name: "stat",
		clauses: []clause{{
			scan:   []string{"harness", "cmd", "workload"},
			forbid: callOn(nil, "Counters", "CPStats", "BCacheStats", "AdmissionStats"),
			msg:    "bench-only view of Stats called: read Results.Stats or System.Stats",
		}, {
			scan: []string{"."}, except: []string{"stats.go"}, forbid: imports("reflect"),
			msg: "reflect imported outside stats.go",
		}},
		require: func(tr *tree) []string {
			var got []string
			each(tr, []string{"."}, func(_ string, fn *ast.FuncDecl) {
				if recvName(fn) == "System" && statAccessor.MatchString(fn.Name.Name) {
					got = append(got, fn.Name.Name)
				}
			})
			slices.Sort(got)
			if fmt.Sprint(got) != fmt.Sprint(statMethods) {
				return []string{fmt.Sprintf("System's stats accessors are %v, want exactly %v: publish a counter as a field of its layer's struct", got, statMethods)}
			}
			return nil
		},
		bad: []badTree{{
			files: map[string]string{"cmd/x/main.go": `package main; func f(s S) { a := s.Counters(); _ = a }`},
			want:  "cmd/x/main.go:1: bench-only view of Stats called",
		}, {
			files: map[string]string{"results.go": "package wafl\nimport \"reflect\"\nvar _ = reflect.TypeOf"},
			want:  "results.go:2: reflect imported outside stats.go",
		}, {
			files: map[string]string{"wafl.go": `package wafl; func (sys *System) NVLogStats() int { return 0 }`},
			want:  "System's stats accessors are [NVLogStats]",
		}},
	},
	{
		// One allocation space (internal/core/space.go): every infrastructure
		// message is counted for the drains in one place, the per-CP fences
		// cannot be open-coded again, the CP engine frees and credits only
		// through Infra.Reclaim/AdjustAggrFree, and "volume -1 means the
		// aggregate" stays gone.
		name: "space",
		clauses: []clause{{
			scan: []string{"internal/core"}, except: []string{"internal/core/space.go"}, forbid: callOn([]string{"w"}, "Send"),
			msg: "w.Send outside space.go: use in.send",
		}, {
			scan: []string{"internal/core"}, except: []string{"internal/core/space.go"},
			forbid: callOn([]string{"pendingFree", "reserved"}, "set", "clear", "reset"),
			msg:    "fence mutated outside space.go: use reserve / release / endCP",
		}, {
			scan: []string{"internal/cp/cp.go"}, forbid: identLike(`Counters|AggrFreeID|VolFreeID|CommitFrees`),
			msg: "cp.go frees or credits by hand: use Infra.Reclaim / AdjustAggrFree",
		}, {
			scan: []string{"internal/core", "internal/cp/cp.go"}, forbid: leadingMinusOne,
			msg: "literal -1 passed as a leading argument: select the space, not a sentinel volume",
		}},
		bad: []badTree{{
			files: map[string]string{"internal/core/infra.go": `package core; func (in *Infra) f() { in.w.Send(nil, 0, nil, nil) }`},
			want:  "internal/core/infra.go:1: w.Send outside space.go",
		}, {
			files: map[string]string{"internal/core/infra.go": `package core; func (in *Infra) f() { in.phys.reserved.clear(7) }`},
			want:  "internal/core/infra.go:1: fence mutated outside space.go",
		}, {
			files: map[string]string{"internal/cp/cp.go": `package cp; func (e *Engine) f() { e.in.CommitFrees(nil) }`},
			want:  "internal/cp/cp.go:1: cp.go frees or credits by hand",
		}, {
			files: map[string]string{"internal/cp/cp.go": `package cp; func (e *Engine) f() { e.in.Free(-1, nil) }`},
			want:  "internal/cp/cp.go:1: literal -1 passed as a leading argument",
		}},
	},
	{
		// One owner for the on-media tree: the radix, the hole rule and the
		// slot arithmetic live in internal/fs (File.Walk, File.Resolve,
		// ReadTree) over internal/block's pointer encoding, and everything
		// else reads a tree through them.
		name: "tree",
		clauses: []clause{{
			scan: []string{"..."}, except: []string{"internal/fs", "internal/block"},
			forbid: callOn([]string{"block", "fs"}, "GetPtr", "PtrAt"),
			msg:    "pointer decoded outside internal/fs: read the tree with fs.File.Walk or Resolve",
		}},
		bad: []badTree{{
			files: map[string]string{"fsck.go": `package wafl; func f(d []byte) { _, _ = block.GetPtr(d, 0) }`},
			want:  "fsck.go:1: pointer decoded outside internal/fs",
		}, {
			files: map[string]string{"internal/aggregate/volume.go": `package aggregate; func f(b *fs.Buffer) { _, _ = fs.PtrAt(b, 0) }`},
			want:  "internal/aggregate/volume.go:1: pointer decoded outside internal/fs",
		}},
	},
	{
		// One recycling primitive: a free list of host state is a fifo.Pool,
		// whose counts Quiesce checks, never a queue with its own get-or-new.
		name: "pool",
		clauses: []clause{{
			scan: []string{"..."}, except: []string{"internal/fifo"}, forbid: getOrNew,
			msg: "fifo.Queue used as a get-or-new free list: use fifo.Pool",
		}},
		bad: []badTree{{
			files: map[string]string{"internal/raid/raid.go": `package raid; func (g *Group) f() *S { if g.spare.Len() > 0 { return g.spare.Pop() }; return &S{} }`},
			want:  "internal/raid/raid.go:1: fifo.Queue used as a get-or-new free list",
		}, {
			files: map[string]string{"internal/core/infra.go": `package core; func (in *Infra) f() (b *Bucket) { if in.spare.Len() > 0 { b = in.spare.Pop() } else { b = new(Bucket) }; return }`},
			want:  "internal/core/infra.go:1: fifo.Queue used as a get-or-new free list",
		}},
	},
	{
		// Every knob earns a row: an option survives iff a registered
		// experiment, study, sweep, bench workload or command sets it —
		// otherwise it is a regime nobody validated, and a constant.
		name: "knob",
		require: func(tr *tree) []string {
			set := map[string]bool{}
			each(tr, traffic, func(_ string, n ast.Node) {
				switch v := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range v.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							set[sel.Sel.Name] = true
						}
					}
				case *ast.KeyValueExpr:
					set[lastName(v.Key)] = true
				}
			})
			var out []string
			fields := map[string]bool{}
			for _, s := range []struct{ file, name string }{{"internal/core/options.go", "Options"}, {"wafl.go", "Config"}} {
				names := structFields(tr, s.file, s.name)
				if len(names) == 0 {
					out = append(out, fmt.Sprintf("%s declares no struct %s", s.file, s.name))
				}
				for _, f := range names {
					fields[f] = true
					if !set[f] && knobAllow[f] == "" {
						out = append(out, fmt.Sprintf("%s.%s is assigned by no file under %v: make it a constant", s.name, f, traffic))
					}
				}
			}
			for f := range knobAllow {
				if set[f] || !fields[f] {
					out = append(out, fmt.Sprintf("knobAllow entry %s is stale (assigned by the traffic now, or no longer a field)", f))
				}
			}
			slices.Sort(out)
			return out
		},
		bad: []badTree{{
			files: map[string]string{
				"internal/core/options.go": `package core; type Options struct { ChunkBlocks, BatchSize int; Dynamic bool }`,
				"wafl.go":                  `package wafl; type Config struct { Seed int64 }`,
				"harness/fig.go":           `package harness; func f(c *C) { c.Allocator.ChunkBlocks, c.Seed = 8, 1; _ = O{Dynamic: true} }`,
				"harness/harness_test.go":  `package harness; func f(c *C) { c.Allocator.BatchSize = 4 }`,
			},
			want: "Options.BatchSize is assigned by no file under",
		}},
	},
	{
		// No export without a caller: an exported function or method that no
		// non-test file names is API nobody uses — delete it, or move it to
		// its package's export_test.go if only that package's tests need it.
		name: "export",
		require: func(tr *tree) []string {
			everywhere := []string{"..."}
			declared := map[*ast.Ident]bool{} // the name in a declaration is not a use of it
			each(tr, everywhere, func(_ string, fn *ast.FuncDecl) { declared[fn.Name] = true })
			named := map[string]bool{}
			each(tr, everywhere, func(_ string, id *ast.Ident) {
				if !declared[id] {
					named[id.Name] = true
				}
			})
			var out []string
			unnamed := map[string]bool{}
			each(tr, everywhere, func(file string, fn *ast.FuncDecl) {
				if strings.HasPrefix(file, "bench/") || !fn.Name.IsExported() || named[fn.Name.Name] {
					return
				}
				key := tr.files[file].Name.Name + "." + fn.Name.Name
				if r := recvName(fn); r != "" {
					key = tr.files[file].Name.Name + "." + r + "." + fn.Name.Name
				}
				unnamed[key] = true
				if exportAllow[key] == "" {
					out = append(out, tr.at(fn, "%s is named by no non-test file: delete it, or move it to export_test.go", key))
				}
			})
			for key := range exportAllow {
				if !unnamed[key] {
					out = append(out, fmt.Sprintf("exportAllow entry %s is stale (a non-test file names it now, or it is gone)", key))
				}
			}
			slices.Sort(out)
			return out
		},
		bad: []badTree{{
			files: map[string]string{
				"internal/sim/sync.go": `package sim; func (m *Mutex) TryLock() bool { return m.Lock() }; func (m *Mutex) Lock() bool { return true }`,
				"bench/kernels.go":     `package main; func f(m *sim.Mutex) { m.Lock() }`,
			},
			want: "internal/sim/sync.go:1: sim.Mutex.TryLock is named by no non-test file",
		}},
	},
}

// recvName is the receiver's type name of a method (pointer and type
// parameters stripped), "" for a function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	e := fn.Recv.List[0].Type
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	return lastName(e)
}

// structFields returns the field names of struct type name declared in file.
func structFields(tr *tree, file, name string) []string {
	var out []string
	each(tr, []string{file}, func(_ string, ts *ast.TypeSpec) {
		st, ok := ts.Type.(*ast.StructType)
		if !ok || ts.Name.Name != name {
			return
		}
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				out = append(out, id.Name)
			}
		}
	})
	return out
}

// TestArchitecture checks every rule against the repository.
func TestArchitecture(t *testing.T) {
	tr := loadTree(t, ".")
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(tr) {
				t.Error(v)
			}
		})
	}
}

// TestArchitectureRulesBite runs every rule on its violating trees: a rule
// that stops reporting what it was written to catch fails here.
func TestArchitectureRulesBite(t *testing.T) {
	for _, r := range archRules {
		if len(r.bad) == 0 {
			t.Errorf("rule %s has no negative test", r.name)
		}
		for i, b := range r.bad {
			got := r.check(parseTree(t, b.files))
			if !strings.Contains(strings.Join(got, "\n"), b.want) {
				t.Errorf("rule %s, violating tree %d: want a violation containing %q, got %q", r.name, i, b.want, got)
			}
		}
	}
}
