package wafl

// The architecture rules: what the tree must keep true that no unit test of
// behaviour would notice — one path per operation, one oracle, one stats
// spine, one allocation space, one owner of the on-media tree, no option or
// export that nothing uses, and no document naming a setting that is gone.
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
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// tree is the Go source of a repository, parsed with its comments — the rules
// check the non-test files, and the test files only name what a document may
// cite — and the documents of docFiles and the Makefile, as text:
// slash-separated path relative to the root → content.
type tree struct {
	fset  *token.FileSet
	files map[string]*ast.File
	tests map[string]*ast.File
	docs  map[string]string
}

// docFiles are the documents that describe the tree as it is. CHANGES.md and
// ROADMAP.md record its history and plans, and are not among them.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// parseTree parses sources (path → content) into a tree, test files apart;
// a .md source or the Makefile is a document.
func parseTree(t *testing.T, sources map[string]string) *tree {
	t.Helper()
	tr := &tree{fset: token.NewFileSet(), files: map[string]*ast.File{}, tests: map[string]*ast.File{}, docs: map[string]string{}}
	for p, src := range sources {
		if strings.HasSuffix(p, ".md") || p == "Makefile" {
			tr.docs[p] = src
			continue
		}
		f, err := parser.ParseFile(tr.fset, p, src, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(p, "_test.go") {
			tr.tests[p] = f
		} else {
			tr.files[p] = f
		}
	}
	return tr
}

// loadTree reads every .go file under root, skipping dot directories, the
// documents of docFiles and the Makefile.
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
	for _, p := range append(docFiles, "Makefile") {
		data, err := os.ReadFile(filepath.Join(root, p))
		if err != nil {
			t.Fatal(err)
		}
		sources[p] = string(data)
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

// callsFunc matches a call of the unqualified function name.
func callsFunc(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == name
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

// makesImage matches a call that makes a block image array: block.Clone,
// block.New, make([]byte, ...) and append([]byte{}, ...).
func makesImage(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	if callOn([]string{"block"}, "Clone", "New")(call) {
		return true
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 || (fn.Name != "make" && fn.Name != "append") {
		return false
	}
	arg := call.Args[0]
	if lit, ok := arg.(*ast.CompositeLit); ok && fn.Name == "append" {
		arg = lit.Type
	}
	at, ok := arg.(*ast.ArrayType)
	return ok && at.Len == nil && lastName(at.Elt) == "byte"
}

// makesSlots matches a slot array built: a user file's image words,
// make([]imageWord, n), or a metafile's buffers, make([]*Buffer, n) or
// make([]*fs.Buffer, n).
func makesSlots(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "make" {
		return false
	}
	at, ok := call.Args[0].(*ast.ArrayType)
	if !ok || at.Len != nil {
		return false
	}
	if star, ok := at.Elt.(*ast.StarExpr); ok {
		return lastName(star.X) == "Buffer"
	}
	return lastName(at.Elt) == "imageWord"
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

// groupWrite matches a RAID group's write: Group(...).Write(...).
func groupWrite(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Write" {
		return false
	}
	recv, ok := sel.X.(*ast.CallExpr)
	return ok && lastName(recv.Fun) == "Group"
}

// The volume request methods, the whole mutating surface of aggregate.Volume
// that a namespace operation goes through, and the block write's
// (Volume.EnsureL0Resident, fs.File.WriteBlock).
var volOps = []string{"CreateFileAt", "DeleteFile", "RequestSnapshot", "DeleteSnapshot",
	"RequestRestore", "RequestCloneBind", "AddCloneRef", "StartSplit", "EnsureL0Resident", "WriteImage"}

// System's stats accessors, by name pattern and in full: Stats and MemberStats
// are the spine, and the rest — the two reports too, renders of Stats — are
// the views bench/child.go still reads.
var (
	statAccessor = regexp.MustCompile(`(Stats|Counters|Report)$`)
	statMethods  = []string{"AdmissionStats", "BCacheStats", "CPPhaseReport", "CPStats",
		"Counters", "MemberStats", "Stats", "TraceReport"}
)

// traffic is where configurations are made: the experiment registry, the
// repository benchmark, the commands and the workload generators.
var traffic = []string{"harness", "bench", "cmd", "workload"}

// configStruct is a configuration struct, by package, file and name.
type configStruct struct{ pkg, file, name string }

// knobStructs are the structs whose every field the traffic must set, and
// whose fields a document may name as a setting: the system's settings, the
// workload generators' and the experiments'.
var knobStructs = []configStruct{
	{"core", "internal/core/options.go", "Options"},
	{"wafl", "wafl.go", "Config"},
	{"wafl", "wafl.go", "AdmissionConfig"},
	{"faultinject", "internal/faultinject/faultinject.go", "Config"},
	{"workload", "workload/workload.go", "SeqWrite"},
	{"workload", "workload/workload.go", "RandWrite"},
	{"workload", "workload/workload.go", "ManyFile"},
	{"workload", "workload/workload.go", "OLTP"},
	{"workload", "workload/workload.go", "SnapChurn"},
	{"workload", "workload/workload.go", "NFSMix"},
	{"workload", "workload/aged.go", "AgedVol"},
	{"workload", "workload/clonefleet.go", "CloneFleet"},
	{"workload", "workload/openloop.go", "OpenLoop"},
	{"harness", "harness/harness.go", "RunConfig"},
	{"harness", "harness/harness.go", "TraceOut"},
	{"harness", "harness/crashsweep.go", "CrashSweepConfig"},
	{"harness", "harness/clustersweep.go", "ClusterSweepConfig"},
}

// knobSets is what the traffic sets, each with the type whose Default*
// constructor sets it there ("" elsewhere): by field name, the fields an
// assignment or ++/-- selects through (cfg.X.Y = ... sets Y, and X
// field-wise), and by type and field, a keyed literal's keys (an alias's
// literal sets the type it names).
type knobSets struct {
	sel map[string][]string    // field → constructors
	lit map[[2]string][]string // {type, field} → constructors
}

// setsOf collects what tr's traffic sets.
func setsOf(tr *tree) knobSets {
	ks := knobSets{sel: map[string][]string{}, lit: map[[2]string][]string{}}
	aliases := map[string]string{}
	each(tr, []string{"..."}, func(_ string, ts *ast.TypeSpec) {
		if ts.Assign != 0 {
			aliases[ts.Name.Name] = typeName(ts.Type)
		}
	})
	for _, p := range tr.in(traffic...) {
		for _, d := range tr.files[p].Decls {
			ctor := ""
			if fn, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Default") && fn.Type.Results.NumFields() == 1 {
				ctor = typeName(fn.Type.Results.List[0].Type)
			}
			ast.Inspect(d, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch v := n.(type) {
				case *ast.AssignStmt:
					lhs = v.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{v.X}
				case *ast.CompositeLit:
					typ := typeName(v.Type)
					if t, ok := aliases[typ]; ok {
						typ = t
					}
					for _, e := range v.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							key := [2]string{typ, lastName(kv.Key)}
							ks.lit[key] = append(ks.lit[key], ctor)
						}
					}
				}
				for _, e := range lhs {
					for sel, ok := e.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
						ks.sel[sel.Sel.Name] = append(ks.sel[sel.Sel.Name], ctor)
					}
				}
				return true
			})
		}
	}
	return ks
}

// sets reports whether the traffic sets field of typ outside typ's Default*
// constructor.
func (ks knobSets) sets(typ, field string) bool {
	other := func(ctor string) bool { return ctor != typ }
	return slices.ContainsFunc(ks.sel[field], other) || slices.ContainsFunc(ks.lit[[2]string{typ, field}], other)
}

// What a document's backticked span may name. A setting: a span that starts
// with a (qualified) `Allocator.X`, `Options.X` or `Config.X`, or is
// `X=literal`. A function: a test, benchmark, fuzz target or example anywhere
// in the span, a trailing * a prefix glob. A declaration: a span that is a
// selector chain (`Pkg.Name`, `Type.Member`, `Type.Field.Member`), perhaps
// called, and not a file name. A make invocation: a span that is `make`
// and the targets it runs.
var (
	backticked = regexp.MustCompile("`([^`]+)`")
	docSetting = []*regexp.Regexp{
		regexp.MustCompile(`^(?:\w+\.)*(?:Allocator|Options|Config)\.(\w+)`),
		regexp.MustCompile(`^([A-Za-z]\w*)=(?:true|false|[-+]?[0-9]\S*)$`),
	}
	docFunc     = regexp.MustCompile(`\b(?:(?:Test|Benchmark|Fuzz)[A-Z0-9_]|Example_)\w*\*?`)
	docSelector = regexp.MustCompile(`^\*?(\w+(?:\.\w+)+)(?:\(.*\))?$`)
	docFileName = regexp.MustCompile(`\.(?:go|md|json|mod|txt|sh)$`)
	docMake     = regexp.MustCompile(`^make((?: [\w-]+)+)$`)
	docIdent    = regexp.MustCompile(`^([a-z]+[A-Z]\w*)(?:\(\))?$`)
	docCommand  = regexp.MustCompile(`\b(waflbench|wafltop)\b([^|;&]*)`)
	docFlag     = regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
)

// cmdFlags returns, by command (the directory under cmd/), the flags its
// non-test files define: the name each flag.X or flag.XVar call passes.
func cmdFlags(tr *tree) map[string]map[string]bool {
	flags := map[string]map[string]bool{}
	each(tr, []string{"cmd"}, func(file string, call *ast.CallExpr) {
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || lastName(sel.X) != "flag" {
			return
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				cmd := path.Base(path.Dir(file))
				if flags[cmd] == nil {
					flags[cmd] = map[string]bool{}
				}
				name, _ := strconv.Unquote(lit.Value)
				flags[cmd][name] = true
				return
			}
		}
	})
	return flags
}

// makeTargets returns the targets a Makefile's rules name, each $(VAR) in a
// rule's target list expanded to the variable's value.
func makeTargets(makefile string) map[string]bool {
	vars, targets := map[string]string{}, map[string]bool{}
	assign := regexp.MustCompile(`^(\w+)\s*[?:]?=\s*(.*)$`)
	rule := regexp.MustCompile(`^([^\s#.][^:=]*):(?:[^=]|$)`)
	ref := regexp.MustCompile(`\$\((\w+)\)`)
	for _, l := range strings.Split(makefile, "\n") {
		if m := assign.FindStringSubmatch(l); m != nil {
			vars[m[1]] = m[2]
		} else if m := rule.FindStringSubmatch(l); m != nil {
			names := ref.ReplaceAllStringFunc(m[1], func(v string) string { return vars[v[2:len(v)-1]] })
			for _, n := range strings.Fields(names) {
				targets[n] = true
			}
		}
	}
	return targets
}

// globalsAllow names the package-level variables outside main, each a table
// nothing writes after initialisation, and why it is one.
var globalsAllow = map[string]string{
	"Experiments":     "harness's experiment registry",
	"DefaultGeometry": "the paper testbed's aggregate shape",
	"AllKinds":        "the history generator's full operation mix",
	"SSD":             "a drive profile",
	"HDD":             "a drive profile",
	"FlashPool":       "a drive profile",
	"msgNames":        "span names, filled once by init",
	"processNames":    "the trace's process names",
	"zeros":           "the zero block's bytes",
}

// roadmapCite matches a citation of a roadmap item by number ("ROADMAP
// 1(c)", "ROADMAP.md item 3"), across a line break too.
var roadmapCite = regexp.MustCompile(`\bROADMAP(?:\.md)?\s+(?:items?\s+)?\d`)

// docSpan is a backticked span of a document: its line and its text, runs of
// white space folded to one space.
type docSpan struct {
	line int
	text string
}

// docSpans returns doc's backticked spans outside fenced code blocks.
func docSpans(doc string) []docSpan {
	text := strings.Split(doc, "\n")
	fenced := false
	for i, l := range text {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced, text[i] = !fenced, ""
		} else if fenced {
			text[i] = ""
		}
	}
	prose := strings.Join(text, "\n")
	var spans []docSpan
	for _, m := range backticked.FindAllStringSubmatchIndex(prose, -1) {
		spans = append(spans, docSpan{1 + strings.Count(prose[:m[0]], "\n"), strings.Join(strings.Fields(prose[m[2]:m[3]]), " ")})
	}
	return spans
}

// decls indexes what the tree, test files included, declares — by name
// alone, so a name two packages declare is one entry: every function, each
// package's top-level names, and each type's fields and methods.
type decls struct {
	funcs   map[string]bool
	params  map[string]bool // every function's parameter and result names
	pkgs    map[string]map[string]bool
	members map[string]map[string]string // type → field or method → the type a field holds ("" for a method); every type has an entry
	embeds  map[string][]string          // type → the types it embeds or, as an alias, names
}

// decls builds the index of tr's declarations.
func (tr *tree) decls() decls {
	d := decls{funcs: map[string]bool{}, params: map[string]bool{}, pkgs: map[string]map[string]bool{},
		members: map[string]map[string]string{}, embeds: map[string][]string{}}
	member := func(typ, name, holds string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]string{}
		}
		d.members[typ][name] = holds
	}
	for _, files := range []map[string]*ast.File{tr.files, tr.tests} {
		for _, f := range files {
			pkg := d.pkgs[f.Name.Name]
			if pkg == nil {
				pkg = map[string]bool{}
				d.pkgs[f.Name.Name] = pkg
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if r := recvName(n); r != "" {
						member(r, n.Name.Name, "")
					} else {
						pkg[n.Name.Name], d.funcs[n.Name.Name] = true, true
					}
					for _, fl := range []*ast.FieldList{n.Type.Params, n.Type.Results} {
						if fl == nil {
							continue
						}
						for _, fld := range fl.List {
							for _, id := range fld.Names {
								d.params[id.Name] = true
							}
						}
					}
					return false
				case *ast.ValueSpec:
					for _, id := range n.Names {
						pkg[id.Name] = true
					}
				case *ast.TypeSpec:
					pkg[n.Name.Name] = true
					if d.members[n.Name.Name] == nil {
						d.members[n.Name.Name] = map[string]string{}
					}
					if n.Assign != 0 {
						d.embeds[n.Name.Name] = append(d.embeds[n.Name.Name], typeName(n.Type))
					}
					switch t := n.Type.(type) {
					case *ast.StructType:
						for _, fld := range t.Fields.List {
							if len(fld.Names) == 0 {
								d.embeds[n.Name.Name] = append(d.embeds[n.Name.Name], typeName(fld.Type))
								member(n.Name.Name, typeName(fld.Type), typeName(fld.Type))
							}
							for _, id := range fld.Names {
								member(n.Name.Name, id.Name, typeName(fld.Type))
							}
						}
					case *ast.InterfaceType:
						for _, m := range t.Methods.List {
							for _, id := range m.Names {
								member(n.Name.Name, id.Name, "")
							}
						}
					}
				}
				return true
			})
		}
	}
	return d
}

// typeName is the name of the type e spells, with pointers, slices, maps (to
// the value) and type arguments stripped: *obs.Histogram → Histogram.
func typeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.ArrayType:
			e = t.Elt
		case *ast.MapType:
			e = t.Value
		case *ast.IndexExpr:
			e = t.X
		default:
			return lastName(e)
		}
	}
}

// function reports whether name, a trailing * a prefix glob, names a function.
func (d decls) function(name string) bool {
	prefix, glob := strings.CutSuffix(name, "*")
	if !glob {
		return d.funcs[name]
	}
	for f := range d.funcs {
		if strings.HasPrefix(f, prefix) {
			return true
		}
	}
	return false
}

// named reports whether any declaration — a package's top-level name, a
// function's parameter, a type's field or method — is called name.
func (d decls) named(name string) bool {
	if d.params[name] {
		return true
	}
	for _, pkg := range d.pkgs {
		if pkg[name] {
			return true
		}
	}
	for _, m := range d.members {
		if _, ok := m[name]; ok {
			return true
		}
	}
	return false
}

// member returns what type typ's field or method name holds, looking through
// embedded types and aliases.
func (d decls) member(typ, name string, depth int) (holds string, ok bool) {
	if holds, ok := d.members[typ][name]; ok {
		return holds, true
	}
	if depth < 4 {
		for _, e := range d.embeds[typ] {
			if holds, ok := d.member(e, name, depth+1); ok {
				return holds, true
			}
		}
	}
	return "", false
}

// resolve reports, for a selector chain, whether it cites the tree — its
// first part a package and its second an exported name (so not a metric such
// as `sim.events`), or its first part a type — and, if so, whether it names a
// declaration: the second part a top-level name of the package or a member of
// the type, and each later part a member of the type the part before it holds
// (a method or a field of a type the tree does not declare ends the walk).
func (d decls) resolve(parts []string) (cited, ok bool) {
	walk := func(typ string, rest []string) bool {
		for _, p := range rest {
			if typ == "" {
				return true
			}
			var found bool
			if typ, found = d.member(typ, p, 0); !found {
				return false
			}
		}
		return true
	}
	if pkg := d.pkgs[parts[0]]; pkg != nil && ast.IsExported(parts[1]) {
		if pkg[parts[1]] && walk(parts[1], parts[2:]) {
			return true, true
		}
		cited = true
	}
	if _, isType := d.members[parts[0]]; isType {
		return true, walk(parts[0], parts[1:])
	}
	return cited, false
}

// knobAllow lists the configuration fields no traffic file assigns, with why
// each stays a field.
var knobAllow = map[string]string{
	"Costs":        "the calibration table of DESIGN.md §5, which explaining §V-C's batching shortfall may need to vary",
	"Dropped":      "an OpenLoop result, always 0 (its queues are unbounded), that bench/ still reads",
	"Workers":      "bench/ladder.go reads OpenLoop's worker pools into its backlog bound; openloop_test.go shrinks them",
	"BulkWorkers":  "bench/ladder.go reads OpenLoop's worker pools into its backlog bound; openloop_test.go shrinks them",
	"MaxSnaps":     "workload_test.go's TestSnapChurnRotatesSnapshots shrinks SnapChurn's ring to see it rotate within its window",
	"SnapEvery":    "TestSnapChurnRotatesSnapshots paces SnapChurn's ring faster, and crashsweep_test.go's TestSweepRunsShort snapshots every 5th op of its short history",
	"OpsPerClient": "TestCrashSweepSmall and TestSweepRunsShort shorten the crash sweep's histories; the latter needs one that ends before its 40 boundaries",
	"Modes":        "crashsweep_test.go's TestSweepRunsShort sweeps one CP mode so that one row counts its boundaries",
}

// exportAllow lists the exported functions no non-test file names, with the
// cross-package test that needs each exported.
var exportAllow = map[string]string{
	"aggregate.Volume.CreateFile":       "internal/core and internal/cp tests create files without choosing an inode number",
	"fs.File.DirtyCount":                "internal/cp tests check a file is clean after a CP",
	"bitmap.Index.CorruptFreeWord":      "freeindex_test.go proves fsck catches a bad summary bit",
	"bitmap.Index.CorruptRegionCounter": "freeindex_test.go proves fsck catches a bad region counter",
	"faultinject.Injector.FailBlock":    "crash_test.go forces RAID reconstruction of one block",
	"storage.Drive.InflightMultiBlock":  "crash_test.go waits for a tearable write before crashing",
	"wafl.Stats.Each":                   "stats_test.go and cluster_test.go enumerate every leaf; a wafltop -json dump would be its first caller",
	"wafl.System.MemberStats":           "cluster, placement, results and stats tests read one member's Stats",
	"wafl.System.FsckMember":            "cluster_test.go checks one member of a cluster",
	"wafl.System.VolFreeBlocks":         "parallelcp_test.go compares the loose counter with the bitmap",
	"wafl.ClientCtx.CreatePlaced":       "placement_test.go and cluster_test.go drive capacity-aware placement",
	"wafl.ClientCtx.SnapRead":           "snap_test.go; making it an op kind of the reference model gives it a non-test caller",
	"wafl.System.TunerSamples":          "example_test.go's Example_dynamicTuning prints the tuner's decision trace",
}

var archRules = []archRule{
	{
		// Single-point member resolution: everything else routes through the
		// Member helpers (volAffs, stripeAff, logicalAff).
		name: "aff",
		clauses: []clause{{
			scan: []string{"."}, except: []string{"member.go"}, forbid: indexOf("Volumes"),
			msg: "h.Volumes[...] indexed outside member.go: use the Member helpers",
		}},
		bad: []badTree{{
			files: map[string]string{"client.go": `package wafl; func f(m *Member) { _ = m.h.Volumes[0] }`},
			want:  "client.go:1: h.Volumes[...] indexed outside member.go",
		}},
	},
	{
		// One path per namespace operation and block write: Member.apply,
		// which the client ops, their untimed entries and NVRAM replay all go
		// through.
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
		}, {
			// A block written beside apply, as an untimed setup path might.
			files: map[string]string{"wafl.go": `package wafl; func f(v *V, f *F) { v.EnsureL0Resident(f, 0); f.WriteImage(0, block.Image{}) }`},
			want:  "wafl.go:1: volume request method called outside member.go",
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
		// One measurement runner: a registry table is a list of scenarios
		// that RunConfig.run (harness.go) builds, measures, traces and shuts
		// down. The crash and cluster sweeps' schedules, which crash and
		// recover systems rather than measure them, build theirs in
		// crashsweep.go.
		name: "runner",
		clauses: []clause{{
			scan: []string{"harness"}, except: []string{"harness/harness.go", "harness/crashsweep.go"},
			forbid: callOn([]string{"wafl"}, "NewSystem"),
			msg:    "wafl.NewSystem called under harness/: measure a scenario through RunConfig.run",
		}},
		bad: []badTree{{
			files: map[string]string{"harness/flexgroup.go": `package harness; func f(c wafl.Config) { wafl.NewSystem(c) }`},
			want:  "harness/flexgroup.go:1: wafl.NewSystem called under harness/",
		}},
	},
	{
		// One stats spine (wafl.Stats, stats.go): a window's deltas are
		// Results.Stats, a new counter or histogram is a field of its layer's
		// struct, and the reflective fold never runs on a path a simulated
		// event takes. The histogram renders and the tracer's view of them
		// are bench/'s alone.
		name: "stat",
		clauses: []clause{{
			scan:   []string{"harness", "cmd", "workload"},
			forbid: callOn(nil, "Counters", "CPStats", "BCacheStats", "AdmissionStats"),
			msg:    "bench-only view of Stats called: read Results.Stats or System.Stats",
		}, {
			scan: []string{"..."}, except: []string{"bench"},
			forbid: callOn(nil, "TraceReport", "CPPhaseReport", "Histograms"),
			msg:    "bench-only histogram view called: read the histograms of Results.Stats or System.Stats",
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
			files: map[string]string{"internal/core/infra.go": `package core; func f(t T) { _ = t.Tracer().Histograms() }`},
			want:  "internal/core/infra.go:1: bench-only histogram view called",
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
		// aggregate" stays gone. Its I/O twin: one write path and one read
		// path for committed blocks. Every RAID write outside bench/ is the
		// one Group(...).Write in internal/core (Infra.submit, for tetrises
		// and the activemap flush alike), the CP engine builds no write of
		// its own, and one function of internal/aggregate (readVBN) reads the
		// media through the fault plan.
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
		}, {
			scan:   []string{"internal/cp"},
			forbid: func(n ast.Node) bool { return groupWrite(n) || imports("wafl/internal/storage")(n) },
			msg:    "internal/cp builds a RAID write: hand the activemap flush's writes to Infra.WriteAmap",
		}},
		require: func(tr *tree) []string {
			var out, writes, readers []string
			each(tr, []string{"..."}, func(file string, n *ast.CallExpr) {
				if groupWrite(n) && !strings.HasPrefix(file, "bench/") {
					pos := tr.fset.Position(n.Pos())
					writes = append(writes, fmt.Sprintf("%s:%d", pos.Filename, pos.Line))
				}
			})
			if len(writes) != 1 || !strings.HasPrefix(writes[0], "internal/core/") {
				out = append(out, fmt.Sprintf("Group(...).Write called at %v, want once, in internal/core: submit through the allocator", writes))
			}
			each(tr, []string{"internal/aggregate"}, func(_ string, fn *ast.FuncDecl) {
				calls := false
				ast.Inspect(fn, func(n ast.Node) bool {
					calls = calls || callOn(nil, "PeekChecked")(n)
					return !calls
				})
				if calls {
					readers = append(readers, fn.Name.Name)
				}
			})
			if len(readers) != 1 {
				out = append(out, fmt.Sprintf("internal/aggregate reads the media through the fault plan in %v, want one function", readers))
			}
			return out
		},
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
		}, {
			// The activemap flush's writes built and sent by the CP engine.
			files: map[string]string{"internal/cp/cp.go": "package cp\nimport \"wafl/internal/storage\"\nfunc (e *Engine) f(r [][]storage.WriteReq) { e.a.Group(0).Write(r, 0, nil) }"},
			want:  "internal/cp/cp.go:2: internal/cp builds a RAID write",
		}, {
			files: map[string]string{
				"internal/core/infra.go": `package core; func (in *Infra) f() { in.a.Group(0).Write(nil, 0, nil) }`,
				"internal/core/cp.go":    `package core; func (in *Infra) g() { in.a.Group(1).Write(nil, 0, nil) }`,
			},
			want: "Group(...).Write called at [internal/core/cp.go:1 internal/core/infra.go:1], want once",
		}, {
			files: map[string]string{"wafl.go": `package wafl; func f(m *Member) { m.a.Group(0).Write(nil, 0, nil) }`},
			want:  "Group(...).Write called at [wafl.go:1], want once, in internal/core",
		}, {
			// A timed read beside the fault-checked one.
			files: map[string]string{"internal/aggregate/aggregate.go": `package aggregate
func (a *Aggregate) readVBN(d *Drive) []byte { b, _ := d.PeekChecked(0); return b }
func (a *Aggregate) ReadVBN(d *Drive) []byte { if b, ok := d.PeekChecked(0); ok { return b }; return nil }`},
			want: "internal/aggregate reads the media through the fault plan in [readVBN ReadVBN], want one function",
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
		// One writer of indirect images: File.CleanChild puts every child
		// pointer, so it is the one place a sparse indirect's short array
		// grows (DESIGN §14).
		name: "putptr",
		clauses: []clause{{
			scan: []string{"..."}, except: []string{"internal/fs/file.go"}, forbid: callOn([]string{"block"}, "PutPtr"),
			msg: "pointer encoded outside internal/fs/file.go: File.CleanChild writes indirects",
		}},
		bad: []badTree{{
			files: map[string]string{"internal/aggregate/volume.go": `package aggregate; func f(d []byte) { block.PutPtr(d, 0, 1, 1) }`},
			want:  "internal/aggregate/volume.go:1: pointer encoded outside internal/fs/file.go",
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
		// One maker of image arrays in internal/fs and the facade: the image
		// pool, where every CP-owned array a buffer holds comes from and goes
		// back to when the media drops it (DESIGN §14). block.Clone stays
		// for callers elsewhere. And two ways back into it (ImagePool.put),
		// one for each last holder: the media (Release) and an indirect that
		// outgrew its private array (recycle).
		name: "images",
		clauses: []clause{{
			scan: []string{"internal/fs", "."}, except: []string{"internal/fs/images.go"}, forbid: makesImage,
			msg: "image array made outside internal/fs/images.go: take it from the ImagePool",
		}},
		require: func(tr *tree) []string {
			var out []string
			each(tr, []string{"internal/fs"}, func(file string, fn *ast.FuncDecl) {
				if file == "internal/fs/images.go" && slices.Contains([]string{"Release", "recycle"}, fn.Name.Name) {
					return
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					if callOn(nil, "put")(n) {
						out = append(out, tr.at(n, "image array put back to the pool by %s: only ImagePool.Release and recycle give one back", fn.Name.Name))
					}
					return true
				})
			})
			return out
		},
		bad: []badTree{{
			files: map[string]string{"internal/fs/buffer.go": `package fs; func (b *Buffer) f() { b.data = block.Clone(b.data) }`},
			want:  "internal/fs/buffer.go:1: image array made outside internal/fs/images.go",
		}, {
			files: map[string]string{"internal/fs/file.go": `package fs; func f() []byte { return block.New() }`},
			want:  "internal/fs/file.go:1: image array made outside internal/fs/images.go",
		}, {
			files: map[string]string{"internal/fs/buffer.go": `package fs; func f(p []byte) []byte { return append([]byte{}, p...) }`},
			want:  "internal/fs/buffer.go:1: image array made outside internal/fs/images.go",
		}, {
			files: map[string]string{"internal/fs/walk.go": `package fs; func f() []byte { return make([]byte, 4096) }`},
			want:  "internal/fs/walk.go:1: image array made outside internal/fs/images.go",
		}, {
			files: map[string]string{"client.go": `package wafl; func (sys *System) payload(n int) []byte { return make([]byte, n) }`},
			want:  "client.go:1: image array made outside internal/fs/images.go",
		}, {
			files: map[string]string{"internal/fs/file.go": `package fs; func (f *File) drop(b *Buffer) { f.pool.put(b.data) }`},
			want:  "internal/fs/file.go:1: image array put back to the pool by drop",
		}, {
			files: map[string]string{"internal/fs/images.go": `package fs; func (p *ImagePool) Trim() { p.put(nil) }`},
			want:  "internal/fs/images.go:1: image array put back to the pool by Trim",
		}},
	},
	{
		// One maker of the slot arrays a level-1 node holds its L0s in: the
		// image pool, whose free lists every user file's array of image
		// words comes from and goes back to when its node's last word
		// leaves (DESIGN §15), and which makes the metafiles' arrays of
		// buffers that stay in their trees.
		name: "buffers",
		clauses: []clause{{
			scan: []string{"..."}, except: []string{"internal/fs/images.go"}, forbid: makesSlots,
			msg: "slot array made outside internal/fs/images.go: take it from the ImagePool",
		}},
		bad: []badTree{{
			files: map[string]string{"internal/fs/file.go": `package fs; func (n *node) f(d int) { n.words = make([]imageWord, 2*d) }`},
			want:  "internal/fs/file.go:1: slot array made outside internal/fs/images.go",
		}, {
			files: map[string]string{"internal/fs/file.go": `package fs; func (n *node) f(d int) { n.leaves = make([]*Buffer, 2*d) }`},
			want:  "internal/fs/file.go:1: slot array made outside internal/fs/images.go",
		}},
	},
	{
		// No shared state: independent simulations may run side by side, so
		// a package-level variable outside a command and the tests is a
		// read-only table, named here with why.
		name: "globals",
		require: func(tr *tree) []string {
			var out []string
			for _, p := range tr.in("...") {
				f := tr.files[p]
				if f.Name.Name == "main" {
					continue
				}
				for _, d := range f.Decls {
					if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.VAR {
						for _, spec := range g.Specs {
							for _, id := range spec.(*ast.ValueSpec).Names {
								if id.Name != "_" && globalsAllow[id.Name] == "" {
									out = append(out, tr.at(id, "package-level var %s: pass it in, or make it a read-only table on globalsAllow", id.Name))
								}
							}
						}
					}
				}
			}
			return out
		},
		bad: []badTree{{
			files: map[string]string{"harness/harness.go": `package harness; var tracing struct{ prefix string }`},
			want:  "harness/harness.go:1: package-level var tracing",
		}},
	},
	{
		// No unsafe: the media's table is words — names and handles to byte
		// images (DESIGN §14) — and every image stays a whole slice.
		name: "unsafe",
		clauses: []clause{{
			scan: []string{"..."}, forbid: imports("unsafe"),
			msg: "unsafe imported: keep images whole slices",
		}},
		bad: []badTree{{
			files: map[string]string{"internal/storage/drive.go": `package storage; import "unsafe"; var _ = unsafe.Sizeof(0)`},
			want:  "internal/storage/drive.go:1: unsafe imported",
		}},
	},
	{
		// A user block is a name (block.Name): one helper writes its payload
		// pattern, and only what reads a block's bytes expands it — a
		// verification read and fsck's oracle (the facade's client.go and
		// fsck.go), parity and reconstruction (internal/raid).
		name: "names",
		clauses: []clause{{
			scan: []string{"..."}, except: []string{"internal/block", "internal/raid/raid.go", "client.go", "fsck.go"},
			forbid: callOn(nil, "AppendBytes", "Expand"),
			msg:    "a name expanded outside a read: keep the block.Name",
		}, {
			scan: []string{"..."}, except: []string{"internal/block/name.go"}, forbid: identLike(`(?i)payload.*(fill|pattern)|fill.*payload`),
			msg: "payload pattern written outside block.Name.AppendBytes",
		}},
		bad: []badTree{{
			files: map[string]string{"internal/fs/buffer.go": `package fs; func (b *Buffer) f() []byte { return b.Image().Expand() }`},
			want:  "internal/fs/buffer.go:1: a name expanded outside a read",
		}, {
			files: map[string]string{"member.go": `package wafl; func f(n block.Name) []byte { return n.AppendBytes(nil) }`},
			want:  "member.go:1: a name expanded outside a read",
		}, {
			files: map[string]string{"client.go": `package wafl; func fillPayload(p []byte) {}`},
			want:  "client.go:1: payload pattern written outside block.Name.AppendBytes",
		}},
	},
	{
		// Every knob earns a row: a setting — of the system, a workload
		// generator or an experiment — survives iff a registered experiment,
		// study, sweep, bench workload or command sets it, other than its
		// type's Default* constructor — otherwise it is a regime nobody
		// validated, and a constant.
		name: "knob",
		require: func(tr *tree) []string {
			ks := setsOf(tr)
			var out []string
			fields, unset := map[string]bool{}, map[string]bool{}
			for _, s := range knobStructs {
				names, ok := structFields(tr, s.file, s.name)
				if !ok {
					out = append(out, fmt.Sprintf("%s declares no struct %s", s.file, s.name))
				}
				for _, f := range names {
					fields[f] = true
					if ks.sets(s.name, f) {
						continue
					}
					unset[f] = true
					if knobAllow[f] == "" {
						out = append(out, fmt.Sprintf("%s.%s.%s is assigned by no file under %v outside Default*: make it a constant", s.pkg, s.name, f, traffic))
					}
				}
			}
			for f := range knobAllow {
				if !unset[f] {
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
			want: "core.Options.BatchSize is assigned by no file under",
		}, {
			files: map[string]string{
				"internal/faultinject/faultinject.go":      `package faultinject; type Config struct { TornWriteEvery, LoseWriteEvery uint64 }`,
				"harness/crashsweep.go":                    `package harness; var f = faultinject.Config{TornWriteEvery: 3}`,
				"internal/faultinject/faultinject_test.go": `package faultinject; var c = Config{LoseWriteEvery: 3}`,
			},
			want: "faultinject.Config.LoseWriteEvery is assigned by no file under",
		}, {
			files: map[string]string{
				"wafl.go":             `package wafl; type Config struct { Admission AdmissionConfig }; type AdmissionConfig struct { Enabled bool; Watermark float64 }`,
				"harness/overload.go": `package harness; func f(c *C) { c.Admission.Enabled = true }`,
			},
			want: "wafl.AdmissionConfig.Watermark is assigned by no file under",
		}, {
			// A field-wise assignment sets the field it selects through.
			files: map[string]string{
				"wafl.go":        `package wafl; type Config struct { Costs CostModel }`,
				"harness/fig.go": `package harness; func f(c *C) { c.Costs.ClientOp = 1 }`,
			},
			want: "knobAllow entry Costs is stale",
		}, {
			// A workload field only its constructor and a test set; a
			// literal of another type with the same key sets nothing.
			files: map[string]string{
				"workload/workload.go":      `package workload; type SeqWrite struct { Clients, OpBlocks int }; func DefaultSeqWrite() SeqWrite { return SeqWrite{Clients: 56, OpBlocks: 8} }`,
				"cmd/wafltop/main.go":       `package main; func f() { w := workload.DefaultSeqWrite(); w.Clients = 4; _ = workload.OpenLoop{OpBlocks: 2} }`,
				"workload/workload_test.go": `package workload; func f(w SeqWrite) { w.OpBlocks = 2 }`,
			},
			want: "workload.SeqWrite.OpBlocks is assigned by no file under",
		}, {
			// A harness config field its constructor assigns after building it.
			files: map[string]string{
				"harness/crashsweep.go": `package harness; type CrashSweepConfig struct { Seeds []int64; MaxRun int64 }; func DefaultCrashSweep() CrashSweepConfig { c := CrashSweepConfig{Seeds: []int64{1}}; c.MaxRun = 2; return c }`,
				"harness/registry.go":   `package harness; func f(c CrashSweepConfig) { c.Seeds = nil }`,
			},
			want: "harness.CrashSweepConfig.MaxRun is assigned by no file under",
		}},
	},
	{
		// Docs describe the tree as it is: a setting README, DESIGN,
		// EXPERIMENTS or the verify skill names in backticks is a field of a
		// configuration struct today, a test, package member, type member or
		// lowerCamel identifier they name is declared today, a `make X` names
		// Makefile targets and a `waflbench -x` or `wafltop -x` flags its
		// command defines, so deleting code deletes its mentions too.
		// Neither they, nor a Go comment outside bench/, nor an allow-list
		// reason cites a roadmap item by number: every re-anchor renumbers
		// the items, so a citation says in words what it waits for.
		name: "doc",
		require: func(tr *tree) []string {
			fields := map[string]bool{}
			for _, s := range knobStructs {
				names, _ := structFields(tr, s.file, s.name)
				for _, f := range names {
					fields[f] = true
				}
			}
			d, targets, flags := tr.decls(), makeTargets(tr.docs["Makefile"]), cmdFlags(tr)
			var out []string
			cites := func(where string, line int, text string) {
				for _, m := range roadmapCite.FindAllStringIndex(text, -1) {
					out = append(out, fmt.Sprintf("%s:%d: `%s` cites a roadmap item by number: say what it waits for in words",
						where, line+strings.Count(text[:m[0]], "\n"), strings.Join(strings.Fields(text[m[0]:m[1]]), " ")))
				}
			}
			for _, p := range docFiles {
				for _, s := range docSpans(tr.docs[p]) {
					for _, rx := range docSetting {
						if f := rx.FindStringSubmatch(s.text); f != nil {
							if !fields[f[1]] {
								out = append(out, fmt.Sprintf("%s:%d: `%s` names no field of a configuration struct (knobStructs)", p, s.line, s.text))
							}
							break
						}
					}
					for _, fn := range docFunc.FindAllString(s.text, -1) {
						if !d.function(fn) {
							out = append(out, fmt.Sprintf("%s:%d: `%s` names no function in the tree", p, s.line, fn))
						}
					}
					if m := docSelector.FindStringSubmatch(s.text); m != nil && !docFileName.MatchString(s.text) {
						if cited, ok := d.resolve(strings.Split(m[1], ".")); cited && !ok {
							out = append(out, fmt.Sprintf("%s:%d: `%s` names no declared func, method, type, field, const or var", p, s.line, s.text))
						}
					}
					for _, m := range docCommand.FindAllStringSubmatch(s.text, -1) {
						for _, arg := range strings.Fields(m[2]) {
							if f := docFlag.FindStringSubmatch(arg); f != nil && !flags[m[1]][f[1]] {
								out = append(out, fmt.Sprintf("%s:%d: `%s` passes %s a flag cmd/%s does not define: -%s", p, s.line, s.text, m[1], m[1], f[1]))
							}
						}
					}
					if m := docIdent.FindStringSubmatch(s.text); m != nil && !d.named(m[1]) {
						out = append(out, fmt.Sprintf("%s:%d: `%s` names no declared func, method, type, field, const or var", p, s.line, s.text))
					}
					if m := docMake.FindStringSubmatch(s.text); m != nil && slices.ContainsFunc(strings.Fields(m[1]), func(t string) bool { return !targets[t] }) {
						out = append(out, fmt.Sprintf("%s:%d: `%s` names no Makefile target", p, s.line, s.text))
					}
				}
				cites(p, 1, tr.docs[p])
			}
			for _, p := range tr.in("...") {
				if strings.HasPrefix(p, "bench/") {
					continue
				}
				for _, cg := range tr.files[p].Comments {
					var text strings.Builder
					for _, c := range cg.List {
						text.WriteString(c.Text[2:] + "\n") // past the // or /*
					}
					cites(p, tr.fset.Position(cg.Pos()).Line, text.String())
				}
			}
			for _, allow := range []map[string]string{knobAllow, exportAllow} {
				for key, why := range allow {
					cites("arch_test.go allow-list reason of "+key, 1, why)
				}
			}
			slices.Sort(out)
			return out
		},
		bad: []badTree{{
			files: map[string]string{
				"wafl.go":   `package wafl; type Config struct { Seed int64; Allocator AllocatorOptions }`,
				"README.md": "Set `Config.Seed`.\n\n```\n`Ghost=1`\n```\nThe old scan (`Allocator.LegacyScan=false`).",
			},
			want: "README.md:6: `Allocator.LegacyScan=false` names no field",
		}, {
			files: map[string]string{"DESIGN.md": "# Design\n\nNo tracked number until ROADMAP\nitem 2(f) gives it a workload."},
			want:  "DESIGN.md:3: `ROADMAP item 2` cites a roadmap item by number",
		}, {
			files: map[string]string{"internal/cp/cp.go": "package cp\n\n// The engine waits for the ROADMAP\n// 5(c) payoff.\nfunc f() {}"},
			want:  "internal/cp/cp.go:3: `ROADMAP 5` cites a roadmap item by number",
		}, {
			// A doc citing a test deleted with the behaviour it pinned.
			files: map[string]string{
				"results_test.go": `package wafl; func TestMeasureMembersMidCP(t *testing.T) {}`,
				"EXPERIMENTS.md":  "Pinned by `TestMeasureMembers*`\nand `go test -run 'TestMergeResultsProperties' .`.",
			},
			want: "EXPERIMENTS.md:2: `TestMergeResultsProperties` names no function in the tree",
		}, {
			files: map[string]string{
				"results.go": `package wafl; type Results struct { Stats Stats }; type Stats struct { Client ClientStats }; type ClientStats struct { Ops uint64 }`,
				"DESIGN.md":  "`Results.Stats.Client.Ops` counts ops; `wafl.MergeResults(parts)` sums them.",
			},
			want: "DESIGN.md:1: `wafl.MergeResults(parts)` names no declared func, method, type, field, const or var",
		}, {
			files: map[string]string{
				"Makefile":  "GATES = crashsweep clustersweep\n\n.PHONY: build $(GATES)\n\nbuild:\n\tgo build ./...\n\n$(GATES):\n\tgo run ./cmd/waflbench -exp $@\n",
				"README.md": "Run `make build`, `make crashsweep clustersweep`\nand `make crashsweep bench`.",
			},
			want: "README.md:2: `make crashsweep bench` names no Makefile target",
		}, {
			// A vregion picker deleted when the volumes' argmax became the AAs'.
			files: map[string]string{
				"internal/core/space.go": `package core; func mostFree(used []bool, free func(int) int64) int { return -1 }`,
				"DESIGN.md":              "`mostFree` picks an AA;\n`selectVRegion` a vregion.",
			},
			want: "DESIGN.md:2: `selectVRegion` names no declared func",
		}, {
			files: map[string]string{
				"cmd/waflbench/main.go": `package main; import "flag"; func main() { flag.String("exp", "all", ""); flag.Duration("window", 0, ""); flag.Parse() }`,
				"EXPERIMENTS.md":        "Run `go run ./cmd/waflbench -exp fig4 -window 40ms`\nor `waflbench -exp fig4 -cleaners=4`.",
			},
			want: "EXPERIMENTS.md:2: `waflbench -exp fig4 -cleaners=4` passes waflbench a flag cmd/waflbench does not define: -cleaners",
		}},
	},
	{
		// No export without a caller: an exported function or method that no
		// non-test file names is API nobody uses — delete it, or move it to
		// its package's export_test.go if only that package's tests need it.
		// It matches by bare name, so a method whose name another one shares
		// (ID, Cores, Profile, Sched, ...) passes while any of them is named
		// anywhere: make cover's 0 % list is what catches those.
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

// structFields returns the field names of struct type name declared in file,
// and whether file declares it.
func structFields(tr *tree, file, name string) (out []string, found bool) {
	each(tr, []string{file}, func(_ string, ts *ast.TypeSpec) {
		st, ok := ts.Type.(*ast.StructType)
		if !ok || ts.Name.Name != name {
			return
		}
		found = true
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				out = append(out, id.Name)
			}
		}
	})
	return out, found
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
