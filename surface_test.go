package sidq_test

// The module's surface is what some main reaches. This file is the
// guard: a type-checked reachability pass over the non-test source of
// every package under cmd/, examples/, benchmark/ and internal/, rooted
// at each binary's main and init. An internal/ declaration no binary
// reaches must either go or be named in surfaceKeep with the class it
// belongs to and the reason it stays; and Figure 2 (core.Taxonomy) must
// star exactly the references no binary reaches. The same pass holds
// exported struct fields to "an option is what a binary sets": a field
// reached code reads and no reached declaration assigns is a constant,
// and must be folded or named in fieldKeep.
//
// A declaration is reached when a reached declaration names it. A
// method is reached when its receiver type is and it is either named
// or can be called through an interface the type satisfies.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"sidq/internal/core"
	"sidq/internal/exp"
)

const modulePath = "sidq"

// surfaceDecl is one top-level declaration: a function, a method, a
// type, or one name of a var/const spec.
type surfaceDecl struct {
	name  string // "pkg.Name" or "pkg.Type.Method", pkg relative to internal/
	obj   types.Object
	recv  *types.TypeName // methods only
	node  ast.Node        // what its references are read from
	info  *types.Info
	lines int
}

// surfaceLoader type-checks module packages from source (non-test
// files, build tags honoured) and reads the standard library from the
// export data of the build that is running this test.
type surfaceLoader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	decls map[types.Object]*surfaceDecl
	order []*surfaceDecl
	// methods holds each named type's declared methods.
	methods map[*types.TypeName][]*surfaceDecl
	// ifaces holds, by method name, every interface that declares a
	// method of that name — in the module or in any package it imports.
	// A method is reachable through dynamic dispatch once its receiver
	// type is reached and satisfies one of them.
	ifaces map[string][]*types.Interface
	// fieldOwner maps each field of a named struct type to that type.
	fieldOwner map[*types.Var]*types.TypeName
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, modulePath)))
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range names {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	for _, tv := range info.Types {
		l.noteInterface(tv.Type)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, modulePath+"/"), "internal/")
	for _, f := range files {
		for _, d := range f.Decls {
			l.declare(rel, d, info)
		}
	}
	return pkg, nil
}

func (l *surfaceLoader) noteInterface(t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			n := it.Method(i).Name()
			l.ifaces[n] = append(l.ifaces[n], it)
		}
	}
}

// dispatched reports whether method name of the named type tn can be
// called through an interface: tn (or *tn) implements one that has it.
// A generic type is not instantiated here; for it the name decides.
func (l *surfaceLoader) dispatched(tn *types.TypeName, name string) bool {
	switch name {
	case "Unwrap", "Is", "As": // package errors asserts these through unnamed interfaces
		return true
	}
	named, _ := tn.Type().(*types.Named)
	if named == nil || named.TypeParams().Len() > 0 {
		return len(l.ifaces[name]) > 0
	}
	for _, it := range l.ifaces[name] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

func (l *surfaceLoader) declare(pkg string, d ast.Decl, info *types.Info) {
	add := func(id *ast.Ident, node ast.Node, doc *ast.CommentGroup, recv *types.TypeName) {
		obj := info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		from := node.Pos()
		if doc != nil {
			from = doc.Pos()
		}
		name := pkg + "." + id.Name
		if recv != nil {
			name = pkg + "." + recv.Name() + "." + id.Name
		}
		sd := &surfaceDecl{name: name, obj: obj, recv: recv, node: node, info: info,
			lines: l.fset.Position(node.End()).Line - l.fset.Position(from).Line + 1}
		l.decls[obj] = sd
		l.order = append(l.order, sd)
		if recv != nil {
			l.methods[recv] = append(l.methods[recv], sd)
		}
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		var recv *types.TypeName
		if d.Recv != nil {
			t := info.Defs[d.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			recv = t.(*types.Named).Obj()
		}
		add(d.Name, d, d.Doc, recv)
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				doc := s.Doc
				if doc == nil && len(d.Specs) == 1 {
					doc = d.Doc
				}
				add(s.Name, s, doc, nil)
				// An alias declares no fields: they stay their type's own.
				if tn, ok := info.Defs[s.Name].(*types.TypeName); ok && !tn.IsAlias() {
					if st, ok := tn.Type().Underlying().(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							l.fieldOwner[st.Field(i)] = tn
						}
					}
				}
			case *ast.ValueSpec:
				doc := s.Doc
				if doc == nil && len(d.Specs) == 1 {
					doc = d.Doc
				}
				for _, id := range s.Names {
					add(id, s, doc, nil)
				}
			}
		}
	}
}

// reach returns every declaration reachable from roots. The body of
// core.Taxonomy is not followed: Figure 2 names every cell, measured or
// not, and naming is not reaching.
func (l *surfaceLoader) reach(roots []*surfaceDecl) map[*surfaceDecl]bool {
	seen := map[*surfaceDecl]bool{}
	var work []*surfaceDecl
	push := func(d *surfaceDecl) {
		if d != nil && !seen[d] {
			seen[d] = true
			work = append(work, d)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		if tn, ok := d.obj.(*types.TypeName); ok {
			for _, m := range l.methods[tn] {
				if l.dispatched(tn, m.obj.Name()) {
					push(m)
				}
			}
		}
		node := d.node
		if d.name == "core.Taxonomy" {
			node = node.(*ast.FuncDecl).Type
		}
		ast.Inspect(node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := d.info.Uses[id]
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			push(l.decls[obj])
			return true
		})
	}
	return seen
}

// fieldUse walks the reached declarations once and returns the struct
// fields they read and the ones they set. A field is set by a keyed or
// positional composite-literal element, by `x.F =`, `x.F op=`, `x.F++`,
// by a store into one of its elements (`x.F[i] =`) and by `&x.F` (a
// flag package writes through it) — but not by a
// method of the field's own type: that is the type defaulting an option
// nobody stated, or filling its own state. Every other mention of x.F
// is a read.
func (l *surfaceLoader) fieldUse(reached map[*surfaceDecl]bool) (read, set map[*types.Var]bool) {
	read, set = map[*types.Var]bool{}, map[*types.Var]bool{}
	for d := range reached {
		field := func(e ast.Expr) *types.Var {
			for {
				p, ok := e.(*ast.ParenExpr)
				if !ok {
					break
				}
				e = p.X
			}
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if v, ok := d.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
					return v.Origin()
				}
			}
			return nil
		}
		mark := func(e ast.Expr) {
			if v := field(e); v != nil && (d.recv == nil || l.fieldOwner[v] != d.recv) {
				set[v] = true
			}
		}
		stored := map[ast.Expr]bool{} // left-hand sides of plain assignments: not reads
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					mark(lhs)
					if ix, ok := lhs.(*ast.IndexExpr); ok {
						mark(ix.X)
					}
					if n.Tok == token.ASSIGN {
						stored[lhs] = true
					}
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					mark(n.X)
				}
			case *ast.CompositeLit:
				st, _ := d.info.Types[n].Type.Underlying().(*types.Struct)
				if st == nil {
					break
				}
				for i, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); !ok {
						set[st.Field(i).Origin()] = true
					} else if v, ok := d.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						set[v.Origin()] = true
					}
				}
			case *ast.SelectorExpr:
				if v := field(n); v != nil && !stored[n] {
					read[v] = true
				}
			}
			return true
		})
	}
	return read, set
}

// stdExports maps every standard-library package the module's binaries
// link to its export data file, as `go list -export` names it: the
// build cache already holds them, the go command having compiled the
// same packages to run this test. (Type-checking them from source with
// importer "source" gives the same answer in 2 s, but in 13 s under
// -race.) benchmark/ is a module of its own and is listed from inside.
func stdExports(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, dir := range []string{root, filepath.Join(root, "benchmark")} {
		cmd := exec.Command("go", "list", "-export", "-deps", "-f", "{{if .Standard}}{{.ImportPath}}={{.Export}}{{end}}", "./...")
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list -export in %s: %v", dir, err)
		}
		for _, line := range strings.Fields(string(b)) {
			path, file, _ := strings.Cut(line, "=")
			out[path] = file
		}
	}
	return out
}

func loadSurface(t *testing.T) *surfaceLoader {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "benchmark")); err != nil {
		t.Skip("benchmark/ is absent: what only it reaches would read as unreached")
	}
	exports := stdExports(t, root)
	fset := token.NewFileSet()
	l := &surfaceLoader{
		root: root, fset: fset,
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		}),
		pkgs:    map[string]*types.Package{},
		decls:   map[types.Object]*surfaceDecl{},
		methods: map[*types.TypeName][]*surfaceDecl{},
		ifaces:  map[string][]*types.Interface{},

		fieldOwner: map[*types.Var]*types.TypeName{},
	}
	for _, top := range []string{"cmd", "examples", "benchmark", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(p string, e os.DirEntry, err error) error {
			if err != nil || !e.IsDir() {
				return err
			}
			if e.Name() == "testdata" {
				return filepath.SkipDir
			}
			if m, _ := filepath.Glob(filepath.Join(p, "*.go")); len(m) == 0 {
				return nil
			}
			rel, _ := filepath.Rel(root, p)
			_, err = l.Import(modulePath + "/" + filepath.ToSlash(rel))
			return err
		})
		if err != nil {
			t.Fatalf("loading %s: %v", top, err)
		}
	}
	// Interfaces of every imported package, the standard library's
	// included: sort.Interface, json.Marshaler, http.Handler, ...
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				l.noteInterface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range l.pkgs {
		visit(p)
	}
	return l
}

// The three reasons an internal/ declaration no binary reaches may
// stay. Anything else unreached is deleted with its tests.
const (
	// Code that exists for tests but must live in a non-test file
	// because tests of other packages import it.
	keepTestSupport = "test support"
	// A Figure-2 cell with no E-table yet (ROADMAP item 8b). The starred
	// references themselves come from core.Taxonomy().Unmeasured; the
	// table below lists only what tests need beside them.
	keepUnmeasured = "unmeasured Figure-2 cell"
	// An accessor, decoder or fixture through which a test or a
	// committed benchmark row checks code that is reached.
	keepHeld = "holds reached code to a test"
)

// surfaceKeep names what stays unreached, and why. An entry without a
// dot is a whole package; an entry naming a type keeps its methods too.
// Everything a kept declaration reaches is kept with it.
var surfaceKeep = []struct{ name, class, reason string }{
	{"chaos", keepTestSupport, "the fault-injection harness behind make chaos and make crash"},
	{"israce", keepTestSupport, "lets allocation-count tests in six packages stand down under -race"},
	{"faults.CrashFS", keepTestSupport, "the crash-image store.FS the store, server and chaos crash tests run on"},
	{"faults.NewCrashFS", keepTestSupport, "constructor of CrashFS"},
	{"obs.MemSink", keepTestSupport, "the TraceSink the chaos harness and the core/server tests count events in"},
	{"obs.FuncSink", keepTestSupport, "adapts a closure to TraceSink in tests"},
	{"server.New", keepTestSupport, "the handler without a Service, as the route tests mount it"},
	{"server.Service.SetReady", keepTestSupport, "flips /v1/readyz in the readiness tests"},
	{"server.Service.Draining", keepTestSupport, "read by the graceful-shutdown tests"},
	{"server.Service.EvictIdleStreams", keepTestSupport, "one janitor sweep at a chosen time, so idle-eviction tests need no clock"},

	{"analysis.NewBurstDetector", keepUnmeasured, "constructor of the starred BurstDetector"},
	{"decide.NewAdaptiveSampler", keepUnmeasured, "constructor of the starred AdaptiveSampler"},
	{"decide.NewMarkov2Predictor", keepUnmeasured, "constructor of the starred Markov2Predictor"},
	{"faults.NewZoneMonitor", keepUnmeasured, "constructor of the starred ZoneMonitor"},
	{"uncertain.NewMultiTaskTrend", keepUnmeasured, "constructor of the starred MultiTaskTrend"},
	{"uncertain.NewTransferTrend", keepUnmeasured, "constructor of the starred TransferTrend"},
	{"uquery.NewDiscreteObject", keepUnmeasured, "constructor of the starred DiscreteObject"},
	{"uquery.NewKNNMonitor", keepUnmeasured, "constructor of the starred KNNMonitor"},
	{"reduce.VerifyDirectionError", keepUnmeasured, "the angular error the starred DirectionPreserving is bounded by; its E7 row will report it"},

	{"roadnet.Continental", keepHeld, "the long-edge network of BenchmarkSnapDists/continental, the row a routing hierarchy would have to argue from"},
	{"roadnet.Graph.BuildEngine", keepHeld, "a cold engine per iteration of BenchmarkSnapDists"},
	{"reduce.DeltaVarintDecode", keepHeld, "round-trip half of DeltaVarintEncode (E7b); fuzzed"},
	{"reduce.RiceDecode", keepHeld, "round-trip half of RiceEncode (E7b); fuzzed"},
	{"reduce.UnZigZag", keepHeld, "inverse of ZigZag in the codec round-trip tests"},
	{"reduce.Dequantize", keepHeld, "inverse of Quantize in the codec round-trip tests"},
	{"reduce.DecodeNetworkTrip", keepHeld, "round-trip half of EncodeNetworkTrip (E7b)"},
	{"core.RouteRecoverStage", keepHeld, "runs MapMatch as a stage for the map-matching goldens and the stage-trait table"},
	{"index.RTree.Len", keepHeld, "tests count what Insert stored"},
}

// The two reasons an exported field that reached code reads and no
// binary sets may stay a field.
const (
	// State its own type fills: the rule does not count a type's own
	// methods as setting an option.
	keepData = "data"
	// A fake or a shrunken bound that only a test states.
	keepTestSeam = "test seam"
)

// fieldKeep names those fields as "pkg.Type.Field".
var fieldKeep = []struct{ name, class, reason string }{
	{"exp.Table.Rows", keepData, "what Table.AddRow appends and the renderers print"},
	{"reduce.NetworkTrip.Start", keepData, "a field of the trip codec's wire format: DecodeNetworkTrip fills it; E7b's trips start at 0"},

	{"core.Runner.Trace", keepTestSeam, "obs.MemSink in the runner tests: the only way to see a skip or a panic as an event"},
	{"server.Config.Trace", keepTestSeam, "obs.MemSink in the session and durability tests; ROADMAP 2a wires a ring sink into sidqserve"},
	{"session.DurabilityConfig.FS", keepTestSeam, "faults.CrashFS under the service in the crash-recovery tests"},
	{"session.StreamConfig.MaxLanePending", keepTestSeam, "shrunk to 4–8 events so the overload tests reach the 429 in one chunk"},
	{"session.StreamConfig.MaxResults", keepTestSeam, "shrunk to 6–8 rows so the backpressure tests fill it"},
	{"session.StreamConfig.JanitorEvery", keepTestSeam, "1 ms in the eviction-under-durability test, which cannot wait 15 s"},
	{"store.Options.BatchInterval", keepTestSeam, "1 ms and below so the FsyncBatch tests see a flush without sleeping 25 ms"},
}

// refDecl maps one core.Taxonomy reference to its declaration name.
func refDecl(ref any) string {
	v := reflect.ValueOf(ref)
	name := ""
	if v.Kind() == reflect.Func {
		name = strings.NewReplacer("(*", "", ")", "").Replace(runtime.FuncForPC(v.Pointer()).Name())
	} else {
		name = v.Type().Elem().PkgPath() + "." + v.Type().Elem().Name()
	}
	return strings.TrimPrefix(name, modulePath+"/internal/")
}

func TestSurfaceIsWhatAMainReaches(t *testing.T) {
	l := loadSurface(t)
	byName := map[string]*surfaceDecl{}
	var mains []*surfaceDecl
	for _, d := range l.order {
		byName[d.name] = d
		internal := strings.HasPrefix(d.obj.Pkg().Path(), modulePath+"/internal/")
		if _, ok := d.obj.(*types.Func); ok && !internal && d.recv == nil && (d.obj.Name() == "main" || d.obj.Name() == "init") {
			mains = append(mains, d)
		}
	}
	reached := l.reach(mains)

	// Figure 2: a reference is starred exactly when no binary reaches it,
	// and a cell names an experiment exactly when one reaches it.
	byExp := map[string]map[*surfaceDecl]bool{}
	for _, e := range exp.All() {
		run := byName[refDecl(e.Run)]
		if run == nil {
			t.Fatalf("experiment %s: no declaration for its Run", e.ID)
		}
		byExp[e.ID] = l.reach([]*surfaceDecl{run})
	}
	keep := map[*surfaceDecl]bool{}
	for _, e := range core.Taxonomy() {
		var refs []*surfaceDecl
		for i, r := range append(append([]any{}, e.Refs...), e.Unmeasured...) {
			d := byName[refDecl(r)]
			if d == nil {
				t.Errorf("taxonomy cell %q: no declaration named %s", e.Task, refDecl(r))
				continue
			}
			if starred := i >= len(e.Refs); starred == reached[d] {
				t.Errorf("taxonomy cell %q: %s is starred=%v but reached=%v", e.Task, d.name, starred, reached[d])
			} else if starred {
				keep[d] = true
			} else {
				refs = append(refs, d)
			}
		}
		measuredBy := map[string]bool{}
		for id, r := range byExp {
			for _, d := range refs {
				measuredBy[id] = measuredBy[id] || r[d]
			}
		}
		for _, id := range e.Measured {
			if !measuredBy[id] {
				t.Errorf("taxonomy cell %q: experiment %s does not reach it", e.Task, id)
			}
		}
		if len(e.Measured) == 0 {
			for id, ok := range measuredBy {
				if ok {
					t.Errorf("taxonomy cell %q names no experiment but %s reaches it", e.Task, id)
				}
			}
		}
	}

	for _, k := range surfaceKeep {
		if k.reason == "" || (k.class != keepTestSupport && k.class != keepUnmeasured && k.class != keepHeld) {
			t.Errorf("keep %s: needs one of the three classes and a reason", k.name)
		}
		n := 0
		for _, d := range l.order {
			if d.name == k.name || strings.HasPrefix(d.name, k.name+".") {
				n++
				keep[d] = true
				if d.name == k.name && reached[d] {
					t.Errorf("keep %s (%s): a binary reaches it now; drop the entry", k.name, k.class)
				}
			}
		}
		if n == 0 {
			t.Errorf("keep %s: no such declaration", k.name)
		}
	}
	roots := mains
	for d := range keep {
		roots = append(roots, d)
		if tn, ok := d.obj.(*types.TypeName); ok { // a starred type: its methods too
			roots = append(roots, l.methods[tn]...)
		}
	}
	kept := l.reach(roots)

	var dead []string
	lines := 0
	for _, d := range l.order {
		if !kept[d] && strings.HasPrefix(d.obj.Pkg().Path(), modulePath+"/internal/") {
			dead = append(dead, fmt.Sprintf("%s (%d lines)", d.name, d.lines))
			lines += d.lines
		}
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Errorf("%d lines in %d internal/ declarations that no main reaches and surfaceKeep does not name — delete them with their tests, or give them a caller:\n  %s",
			lines, len(dead), strings.Join(dead, "\n  "))
	}

	// An option is what a binary sets: an exported field that reached
	// code reads and none assigns holds its zero value in every program
	// this repository builds.
	read, set := l.fieldUse(reached)
	fieldKept := map[string]bool{}
	for _, k := range fieldKeep {
		if k.reason == "" || (k.class != keepData && k.class != keepTestSeam) {
			t.Errorf("fieldKeep %s: needs one of the two classes and a reason", k.name)
		}
		fieldKept[k.name] = false
	}
	var unset []string
	for v, owner := range l.fieldOwner {
		if !v.Exported() || !owner.Exported() || !strings.HasPrefix(v.Pkg().Path(), modulePath+"/internal/") {
			continue
		}
		name := strings.TrimPrefix(v.Pkg().Path(), modulePath+"/internal/") + "." + owner.Name() + "." + v.Name()
		flagged := read[v] && !set[v]
		if _, ok := fieldKept[name]; ok {
			fieldKept[name] = flagged
		} else if flagged {
			unset = append(unset, name)
		}
	}
	for name, flagged := range fieldKept {
		if !flagged {
			t.Errorf("fieldKeep %s: no such field, or a binary sets it now, or nothing reads it; drop the entry", name)
		}
	}
	if len(unset) > 0 {
		sort.Strings(unset)
		t.Errorf("%d exported fields that reached code reads and nothing a main reaches sets, outside fieldKeep — fold each to the constant it is and delete the branch behind it, or set it from a binary:\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
}

// TestGobIsReadOnlyLegacy: the module writes no gob. Every WAL record
// is an SQC layout, and the gob records older builds wrote are decoded
// in one file, internal/session/legacy.go — the only non-test file of
// the root module that may import encoding/gob. (benchmark/ is a module
// of its own.)
func TestGobIsReadOnlyLegacy(t *testing.T) {
	const legacy = "internal/session/legacy.go"
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var importers []string
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			_, mod := os.Stat(filepath.Join(p, "go.mod"))
			if p != root && (mod == nil || e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				rel, _ := filepath.Rel(root, p)
				importers = append(importers, filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(importers) != 1 || importers[0] != legacy {
		t.Errorf("non-test files importing encoding/gob: %v; want exactly %s, which only reads the legacy records", importers, legacy)
	}
}

// TestEngineShellBoundary holds the seam between the session engine and
// its HTTP shell (DESIGN.md "Engine and shell"): internal/session reaches
// neither net/http nor internal/server through any chain of imports,
// starts no goroutine — nor does internal/stream, which it runs on every
// chunk — and reads no clock except where recovery times itself — time
// is an argument; and internal/server touches the store only to name
// the two types its config carries.
func TestEngineShellBoundary(t *testing.T) {
	const engine, shell, storePkg = modulePath + "/internal/session", modulePath + "/internal/server", modulePath + "/internal/store"
	const streamPkg = modulePath + "/internal/stream"
	out, err := exec.Command("go", "list", "-deps", "./internal/session").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if dep == "net/http" || dep == shell {
			t.Errorf("internal/session depends on %s", dep)
		}
	}

	l := loadSurface(t)
	for _, d := range l.order {
		pkg := d.obj.Pkg().Path()
		if pkg != engine && pkg != shell && pkg != streamPkg {
			continue
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok && (pkg == engine || pkg == streamPkg) {
				t.Errorf("%s starts a goroutine: the engine and the stream operators it runs have none of their own", d.name)
			}
			id, ok := n.(*ast.Ident)
			if !ok || d.info.Uses[id] == nil || d.info.Uses[id].Pkg() == nil {
				return true
			}
			if f, ok := d.info.Uses[id].(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
				return true // a method (Time.After), not the package's function
			}
			switch use := d.info.Uses[id]; {
			case pkg == shell && use.Pkg().Path() == storePkg && use.Name() != "FsyncMode" && use.Name() != "FS":
				t.Errorf("%s uses store.%s: the shell names store.FsyncMode and store.FS in its config, nothing else", d.name, use.Name())
			case pkg == engine && use.Pkg().Path() == "time":
				switch use.Name() {
				case "NewTicker", "NewTimer", "Tick", "After", "AfterFunc", "Sleep":
					t.Errorf("%s calls time.%s: the engine waits for nothing", d.name, use.Name())
				case "Now", "Since", "Until":
					if d.name != "session.Engine.recoverFrom" {
						t.Errorf("%s reads the clock (time.%s): time is an argument everywhere but where recovery times itself", d.name, use.Name())
					}
				}
			}
			return true
		})
	}
}

// TestDesignNamesEveryPool: every package-level sync.Pool in the
// non-test internal/ source is named in DESIGN.md, as `name` or
// `pkg.name`, so each pooled buffer has a written owner, lifetime and
// cap beside the code that fills it.
func TestDesignNamesEveryPool(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	isPool := func(e ast.Expr) bool {
		if c, ok := e.(*ast.CompositeLit); ok {
			e = c.Type
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == "sync" && sel.Sel.Name == "Pool"
	}
	fset := token.NewFileSet()
	pools := 0
	err = filepath.WalkDir("internal", func(p string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			g, ok := d.(*ast.GenDecl)
			if !ok || g.Tok != token.VAR {
				continue
			}
			for _, s := range g.Specs {
				vs := s.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !(vs.Type != nil && isPool(vs.Type)) && !(i < len(vs.Values) && isPool(vs.Values[i])) {
						continue
					}
					pools++
					pkg := f.Name.Name
					if !strings.Contains(string(design), "`"+name.Name+"`") && !strings.Contains(string(design), "`"+pkg+"."+name.Name+"`") {
						t.Errorf("%s: pool %s.%s is not named in DESIGN.md; give it a line with its owner, lifetime and cap", fset.Position(name.Pos()), pkg, name.Name)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pools == 0 {
		t.Fatal("found no package-level sync.Pool under internal/: the scan is broken")
	}
}
