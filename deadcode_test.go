package mobiceal

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestNoTestOnlyCode is the gate for "no machinery that only tests call".
// It type-checks the module's non-test code and reports each of these,
// unless testOnlyAllowed lists it with the reason it stays:
//
//   - A top-level function or method with no use in a non-test file other
//     than its own body. A method also counts as used when an interface
//     holds it that is the standard library's, or the module's and its
//     method is called somewhere.
//   - A struct field of a package-level type that non-test code never
//     reads. Selecting a field reads it, except as the target of an
//     assignment (= or op=), of ++ or --, or of a sync/atomic Add or Store
//     whose result is discarded. A struct's fields are also read when its
//     type is reached from an argument of encoding/json's Marshal,
//     MarshalIndent or Encoder.Encode (exported fields, through pointers,
//     slices and maps), from an unsafe.Pointer conversion or an
//     unsafe.Sizeof or Alignof, or from a map's key type or an operand of
//     == or != (every field held by value). Embedded and blank fields are
//     not checked.
//   - An interface with exactly one implementing named type in non-test
//     code.
//   - A field of an ...Options, ...Config or ...Params struct that
//     non-test code never sets: by key or position in a composite
//     literal, as the target of an assignment, ++, -- or atomic Add or
//     Store, by taking its address, or through unsafe as above.
//   - An exported package-level type, constant or variable with no use in
//     a non-test file outside its own declaration and its methods'
//     receivers.
//
// The frozen bench/ module counts as a caller; the names only it holds
// alive are logged. Run it alone with `make deadcode`.
func TestNoTestOnlyCode(t *testing.T) {
	rep, err := findTestOnlyCode(".", []string{"bench"}, testOnlyAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.callerOnly {
		t.Logf("held alive only by bench/: %s (%s, %d lines), which otherwise %s", d.name, d.pos, d.lines, d.why)
	}
	for _, d := range rep.dead {
		t.Errorf("%s (%s, %d lines) %s: delete it, or allowlist it with a reason", d.name, d.pos, d.lines, d.why)
	}
	for _, s := range rep.stale {
		t.Errorf("stale testOnlyAllowed entry: %s", s)
	}
}

// TestDeadcodeFixture runs the checker over testdata/deadcode, a module
// whose declarations each say whether they must be reported.
func TestDeadcodeFixture(t *testing.T) {
	rep, err := findTestOnlyCode("testdata/deadcode", []string{"ext"}, map[string]string{
		"lib.Allowed":        "kept on purpose",
		"lib.Tally.allowed":  "kept on purpose",
		"lib.Used":           "stale: main calls it",
		"lib.Report.Count":   "stale: main encodes it",
		"lib.Gone":           "stale: no such function",
		"lib.Options.Absent": "stale: no such field",
	})
	if err != nil {
		t.Fatal(err)
	}
	names := func(ds []deadDecl) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.name+": "+d.why)
		}
		slices.Sort(out)
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"reported", names(rep.dead), []string{
			"lib.MaxShapes: has no use outside _test.go files",
			"lib.Namer: has no use outside _test.go files; has one implementation outside _test.go files, lib.Square",
			"lib.OnlyTests: has no use outside _test.go files",
			"lib.Options.Verbose: is never set outside _test.go files",
			"lib.Sink: has one implementation outside _test.go files, lib.Tally",
			"lib.Square.Name: has no use outside _test.go files",
			"lib.Tally.drops: is never read outside _test.go files",
			"lib.Tally.hits: is never read outside _test.go files",
			"lib.Tally.unused: is never read outside _test.go files",
			"lib.recurse: has no use outside _test.go files",
		}},
		{"held alive by ext", names(rep.callerOnly), []string{
			"lib.ExtOnly: has no use outside _test.go files",
			"lib.Options.ExtSet: is never set outside _test.go files",
		}},
		{"stale", rep.stale, []string{
			"lib.Gone: no such declaration",
			"lib.Options.Absent: no such declaration",
			"lib.Report.Count: has a use outside _test.go files",
			"lib.Used: has a use outside _test.go files",
		}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s:\n got %q\nwant %q", c.what, c.got, c.want)
		}
	}
}

// testOnlyAllowed names the declarations that keep no non-test use on
// purpose, each with its reason. "mobiceal.*" stands for every exported
// name of the root package, and the exported fields of the types it
// re-exports as aliases: the library API, whose callers live outside the
// module. An entry that is gone, or that has gained a use, fails the gate.
var testOnlyAllowed = map[string]string{
	// The root package's API.
	"mobiceal.*": "the public library API; its callers live outside the module",

	// Test oracles.
	"thinp.Pool.CheckConsistency": "the pool's structural oracle: FuzzOpenPool, the fault sweeps and the reference model check every pool with it",

	// Fault-injection devices: where they live is the crash simulator's
	// call (ROADMAP direction 6).
	"storage.CrashDevice.StartRecording":   "crash simulator device; the power-cut enumerations drive it",
	"storage.CrashDevice.PersistedWrites":  "crash simulator device; the power-cut enumerations drive it",
	"storage.CrashDevice.InFlight":         "crash simulator device; the power-cut enumerations drive it",
	"storage.CrashDevice.CrashImage":       "crash simulator device; the power-cut enumerations drive it",
	"storage.CrashDevice.CrashImageTorn":   "crash simulator device; the power-cut enumerations drive it",
	"storage.CrashDevice.PowerCut":         "crash simulator device; the power-cut enumerations drive it",
	"storage.FlakyDevice.AddBadBlock":      "fault-injection device; the fault sweeps and health-ladder tests drive it",
	"storage.FlakyDevice.ClearBadBlocks":   "fault-injection device; the fault sweeps and health-ladder tests drive it",
	"storage.FlakyDevice.FailOpAt":         "fault-injection device; the fault sweeps and health-ladder tests drive it",
	"storage.FlakyDevice.FailAfter":        "fault-injection device; the fault sweeps and health-ladder tests drive it",
	"storage.FlakyDevice.Disarm":           "fault-injection device; the fault sweeps and health-ladder tests drive it",
	"storage.FlakyDevice.SetTransientRate": "fault-injection device; the fault sweeps and health-ladder tests drive it",
	"storage.FlakyDevice.OpCount":          "fault-injection device; the fault sweeps and health-ladder tests drive it",
	"storage.FlakyDevice.Stats":            "fault-injection device; the fault sweeps and health-ladder tests drive it",
	"storage.FlakyStats.Transient":         "fault-injection device's counters; the fault sweeps read them through Stats",
	"storage.FlakyStats.Medium":            "fault-injection device's counters; the fault sweeps read them through Stats",
	"thinp.Recovery.RolledBack":            "the mount-time slot selection the crash enumerations assert through core.System.Recovery",
	"thinp.Recovery.Reason":                "the mount-time slot selection the crash enumerations assert through core.System.Recovery",

	// The deniability game's surface, which ROADMAP direction 2 gives
	// callers.
	"model.SetupMobiCeal":                 "the formal Setup of Sec. III-B, for the multi-snapshot game runner",
	"adversary.AnalyzeSeries":             "the multi-checkpoint detector, for the multi-snapshot game runner",
	"model.MobiCealScheme.VolumeCount":    "the Scheme interface of Sec. III-B, which the game runner calls",
	"model.MobiCealScheme.VolumeBlocks":   "the Scheme interface of Sec. III-B, which the game runner calls",
	"model.MobiCealScheme.Read":           "the Scheme interface of Sec. III-B, which the game runner calls",
	"model.MobiCealScheme.Write":          "the Scheme interface of Sec. III-B, which the game runner calls",
	"model.Scheme":                        "the formal scheme of Sec. III-B; the game runner plays MobiCeal and, later, other schemes through it",
	"model.Params.Passwords":              "the formal Setup's input (P_1..P_l), which the game runner sets",
	"model.Params.Seed":                   "the formal Setup's randomness, which the game runner sets per trial",
	"adversary.SeriesVerdict.Compromised": "AnalyzeSeries' verdict, for the multi-snapshot game runner",

	// Seams with one implementation per platform or layer, whose other
	// implementations are the tests' fakes.
	"thinp.DummyPolicy": "core implements it; thinp must not import core, and the thinp tests substitute fake policies",
	"storage.vectorIO":  "one implementation per platform (preadv/pwritev); the retry-loop tests substitute a shim",
	"storage.batchIO":   "one implementation per platform (io_uring); the batch tests substitute a shim ring",

	// The paper's vdc command surface (Sec. V-B).
	"android.NewVold":      "the vdc command surface of Sec. V-B; the integration test drives it",
	"android.Vold.Command": "the vdc command surface of Sec. V-B; the integration test drives it",

	// Called by tests that are pinned as they are.
	"thinp.Pool.DeleteThin":         "TestReferenceModelLockstep drives it against the reference model",
	"thinp.Pool.PendingAllocations": "TestReferenceModelLockstep checks the transaction record with it",
	"thinp.Pool.Mode":               "the fault sweeps (TestFaultSweepMetaDevice, TestFaultSweepDataDevice) read the health mode with it",
	"core.System.Recovery":          "TestCrashEnumerationHiddenInvariants reads the mount-time slot selection with it",
	"obs.Signatures":                "TestTraceDeniabilityTwinPools compares the twin pools' flight shapes with it",
}

// deadDecl is one declaration the checker reports.
type deadDecl struct {
	name  string // pkg.Name, pkg.Type.Method or pkg.Type.Field; pkg is the directory below the module root, less "internal/"
	pos   string // file:line below the module root
	lines int
	why   string // what no non-test code does with it
}

type deadReport struct {
	dead       []deadDecl // no use outside _test.go files, not allowlisted
	callerOnly []deadDecl // used only by the caller directories
	stale      []string   // allowlist entries that are gone or have gained a use
}

// usage is what a set of non-test files does with the module's
// declarations, as TestNoTestOnlyCode's rules count it.
type usage struct {
	used      map[types.Object]bool   // referred to outside the object's own declaration
	read, set map[*types.Var]bool     // struct fields
	impls     map[*types.TypeName]int // implementing named types, per module interface
}

// check is one rule a declaration must meet: alive reports whether the
// uses in u meet it, and why says what a declaration that fails it lacks.
type check struct {
	why   string
	alive func(u *usage) bool
}

// candidate is one declaration and the checks it must pass.
type candidate struct {
	deadDecl
	apiKey string // the "pkg.*" allowlist entry that covers it as API, or ""
	checks []check
}

// findTestOnlyCode type-checks the non-test files of the module rooted at
// root, picked by go/build as the compiler would pick them, and of each
// directory in callerDirs (other modules that import it, read only as
// callers), and reports what TestNoTestOnlyCode's rules find.
func findTestOnlyCode(root string, callerDirs []string, allow map[string]string) (*deadReport, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	ctx.CgoEnabled = false // the cgo variants of net and os/user would need the cgo tool
	l := &srcLoader{
		fset:    token.NewFileSet(),
		ctx:     ctx,
		modPath: modPath,
		modDir:  root,
		pkgs:    map[string]*types.Package{},
		info:    newInfo(),
	}

	// Every package directory of the module, skipping testdata, hidden
	// directories and nested modules.
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, _ := filepath.Rel(root, path)
		imp := modPath
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		_, err = l.ImportFrom(imp, root, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	callerInfo := newInfo()
	var callerFiles []*ast.File
	var callerPkgs []*types.Package
	for _, dir := range callerDirs {
		dir = filepath.Join(root, dir)
		bp, err := l.ctx.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		files, err := l.parse(dir, bp.GoFiles)
		if err != nil {
			return nil, err
		}
		conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", l.ctx.GOARCH)}
		p, err := conf.Check(bp.ImportPath, l.fset, files, callerInfo)
		if err != nil {
			return nil, fmt.Errorf("caller %s: %w", dir, err)
		}
		callerFiles = append(callerFiles, files...)
		callerPkgs = append(callerPkgs, p)
	}

	var modPkgs []*types.Package
	for path, p := range l.pkgs {
		if l.inModule(path) {
			modPkgs = append(modPkgs, p)
		}
	}
	ifaces := l.interfaces()
	implementers := implementersOf(ifaces, modPkgs)
	cands, own := l.candidates(l.implemented(), implementers)
	prod := newUsage(l.info, l.files, own, implementers)
	all := prod.union(newUsage(callerInfo, callerFiles, own, implementersOf(ifaces, callerPkgs)))

	var rep deadReport
	hit := map[string]bool{}
	declared := map[string]bool{}
	for _, c := range cands {
		declared[c.name] = true
		var whys []string
		for _, ch := range c.checks {
			if !ch.alive(prod) {
				whys = append(whys, ch.why)
			}
		}
		if len(whys) == 0 {
			continue
		}
		d := c.deadDecl
		d.why = strings.Join(whys, "; ")
		if !slices.ContainsFunc(c.checks, func(ch check) bool { return !ch.alive(all) }) {
			rep.callerOnly = append(rep.callerOnly, d)
			continue
		}
		key := c.name
		if _, ok := allow[key]; !ok && c.apiKey != "" {
			key = c.apiKey
		}
		if _, ok := allow[key]; ok {
			hit[key] = true
			continue
		}
		rep.dead = append(rep.dead, d)
	}
	for name := range allow {
		switch {
		case hit[name]:
		case strings.HasSuffix(name, ".*"):
			rep.stale = append(rep.stale, name+": matches no declaration without a use")
		case declared[name]:
			rep.stale = append(rep.stale, name+": has a use outside _test.go files")
		default:
			rep.stale = append(rep.stale, name+": no such declaration")
		}
	}
	slices.Sort(rep.stale)
	return &rep, nil
}

// span is a stretch of source in which an object's uses do not count: its
// own declaration, and for a type its methods' receivers.
type span struct{ start, end token.Pos }

const noUse = "has no use outside _test.go files"

// candidates lists every declaration the passes check, and the spans in
// which each one's uses do not count.
func (l *srcLoader) candidates(implOf map[*types.Func][]*types.Func, implementers map[*types.TypeName][]*types.TypeName) ([]candidate, map[types.Object][]span) {
	var cands []candidate
	own := map[types.Object][]span{}
	newDecl := func(name string, from, to token.Pos) deadDecl {
		p := l.fset.Position(from)
		file, _ := filepath.Rel(l.modDir, p.Filename)
		return deadDecl{
			name:  name,
			pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(file), p.Line),
			lines: l.fset.Position(to).Line - p.Line + 1,
		}
	}
	used := func(obj types.Object) check {
		return check{noUse, func(u *usage) bool { return u.used[obj] }}
	}
	aliased := l.rootAliased()

	// fields adds the fields of st, a struct of the package-level type
	// owner, named below prefix; and of the anonymous structs nested in
	// their types.
	var fields func(owner *types.TypeName, prefix string, st *ast.StructType)
	fields = func(owner *types.TypeName, prefix string, st *ast.StructType) {
		isOption := strings.HasSuffix(owner.Name(), "Options") || strings.HasSuffix(owner.Name(), "Config") || strings.HasSuffix(owner.Name(), "Params")
		for _, f := range st.Fields.List {
			for _, id := range f.Names {
				v := l.info.Defs[id].(*types.Var)
				name := prefix + "." + id.Name
				ast.Inspect(f.Type, func(n ast.Node) bool {
					if nested, ok := n.(*ast.StructType); ok {
						fields(owner, name, nested)
						return false
					}
					return true
				})
				if id.Name == "_" {
					continue
				}
				c := candidate{deadDecl: newDecl(name, f.Pos(), f.End())}
				c.checks = append(c.checks, check{"is never read outside _test.go files", func(u *usage) bool { return u.read[v] }})
				if isOption && prefix == l.typeName(owner) {
					c.checks = append(c.checks, check{"is never set outside _test.go files", func(u *usage) bool { return u.set[v] }})
				}
				if v.Exported() {
					switch {
					case aliased[owner]:
						c.apiKey = l.modPath + ".*"
					case owner.Exported():
						c.apiKey = l.pkgKey(owner.Pkg()) + ".*"
					}
				}
				cands = append(cands, c)
			}
		}
	}

	for _, f := range l.files {
		isMain := f.Name.Name == "main"
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := l.info.Defs[d.Name].(*types.Func)
				if d.Recv != nil {
					own[recvType(obj)] = append(own[recvType(obj)], span{d.Recv.Pos(), d.Recv.End()})
				}
				if d.Name.Name == "_" || (d.Recv == nil && (d.Name.Name == "init" || (d.Name.Name == "main" && isMain))) {
					continue
				}
				own[obj] = append(own[obj], span{d.Pos(), d.End()})
				c := candidate{deadDecl: newDecl(l.declName(obj), d.Pos(), d.End())}
				// The standard library's calls through its interfaces are
				// out of sight, so its interfaces count whole.
				c.checks = []check{{noUse, func(u *usage) bool {
					return u.used[obj] || slices.ContainsFunc(implOf[obj], func(m *types.Func) bool {
						return m.Pkg() == nil || !l.inModule(m.Pkg().Path()) || u.used[m]
					})
				}}}
				if l.isAPI(obj) {
					c.apiKey = l.pkgKey(obj.Pkg()) + ".*"
				}
				cands = append(cands, c)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						tn := l.info.Defs[s.Name].(*types.TypeName)
						own[tn] = append(own[tn], span{s.Pos(), s.End()})
						if tn.IsAlias() {
							continue
						}
						name := l.typeName(tn)
						if st, ok := s.Type.(*ast.StructType); ok {
							fields(tn, name, st)
						}
						c := candidate{deadDecl: newDecl(name, s.Pos(), s.End())}
						if tn.Exported() {
							c.apiKey = l.pkgKey(tn.Pkg()) + ".*"
							if !isMain {
								c.checks = append(c.checks, used(tn))
							}
						}
						if impls := implementers[tn]; len(impls) == 1 {
							if aliased[tn] {
								c.apiKey = l.modPath + ".*"
							}
							why := "has one implementation outside _test.go files, " + l.typeName(impls[0])
							c.checks = append(c.checks, check{why, func(u *usage) bool { return u.impls[tn] != 1 }})
						}
						if len(c.checks) > 0 {
							cands = append(cands, c)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							obj := l.info.Defs[id]
							own[obj] = append(own[obj], span{s.Pos(), s.End()})
							if obj.Exported() && !isMain && obj.Parent() == obj.Pkg().Scope() {
								c := candidate{deadDecl: newDecl(l.pkgKey(obj.Pkg())+"."+id.Name, s.Pos(), s.End())}
								c.checks = []check{used(obj)}
								c.apiKey = l.pkgKey(obj.Pkg()) + ".*"
								cands = append(cands, c)
							}
						}
					}
				}
			}
		}
	}
	return cands, own
}

// recvType is the named type a method is declared on.
func recvType(fn *types.Func) *types.TypeName {
	t := fn.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj()
}

// rootAliased is the set of module types the root package re-exports
// under an exported alias.
func (l *srcLoader) rootAliased() map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	scope := l.pkgs[l.modPath].Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() && tn.Exported() {
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				out[n.Obj()] = true
			}
		}
	}
	return out
}

// interfaces lists the module's package-level interfaces that have
// methods.
func (l *srcLoader) interfaces() []*types.TypeName {
	var out []*types.TypeName
	for path, p := range l.pkgs {
		if !l.inModule(path) {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				out = append(out, tn)
			}
		}
	}
	return out
}

// implementersOf maps each of ifaces to the package-level named types of
// pkgs that implement it, by value or by pointer.
func implementersOf(ifaces []*types.TypeName, pkgs []*types.Package) map[*types.TypeName][]*types.TypeName {
	out := map[*types.TypeName][]*types.TypeName{}
	for _, p := range pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for _, it := range ifaces {
				if types.Implements(ptr, it.Type().Underlying().(*types.Interface)) {
					out[it] = append(out[it], tn)
				}
			}
		}
	}
	return out
}

// newUsage collects what the given files, type-checked into info, do with
// the module's declarations; implementers maps each module interface to
// the files' named types that implement it.
func newUsage(info *types.Info, files []*ast.File, own map[types.Object][]span, implementers map[*types.TypeName][]*types.TypeName) *usage {
	u := &usage{
		used:  map[types.Object]bool{},
		read:  map[*types.Var]bool{},
		set:   map[*types.Var]bool{},
		impls: map[*types.TypeName]int{},
	}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if !slices.ContainsFunc(own[obj], func(s span) bool { return id.Pos() >= s.start && id.Pos() < s.end }) {
			u.used[obj] = true
		}
	}
	for it, impls := range implementers {
		u.impls[it] = len(impls)
	}
	for _, f := range files {
		u.walk(info, f)
	}
	// A struct used as a map key is compared whole.
	for _, tv := range info.Types {
		if tv.Type == nil {
			continue
		}
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			u.touch(m.Key(), false, false, map[types.Type]bool{})
		}
	}
	return u
}

// union is what u and v do together.
func (u *usage) union(v *usage) *usage {
	w := &usage{
		used:  map[types.Object]bool{},
		read:  map[*types.Var]bool{},
		set:   map[*types.Var]bool{},
		impls: map[*types.TypeName]int{},
	}
	for _, x := range []*usage{u, v} {
		for k := range x.used {
			w.used[k] = true
		}
		for k := range x.read {
			w.read[k] = true
		}
		for k := range x.set {
			w.set[k] = true
		}
		for k, n := range x.impls {
			w.impls[k] += n
		}
	}
	return w
}

// walk records the field reads and sets of one file.
func (u *usage) walk(info *types.Info, f *ast.File) {
	field := func(e ast.Expr) (*ast.SelectorExpr, *types.Var) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil, nil
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return sel, s.Obj().(*types.Var).Origin()
		}
		return nil, nil
	}
	writes := map[*ast.SelectorExpr]bool{}
	write := func(e ast.Expr) {
		if sel, v := field(e); v != nil {
			writes[sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				write(e)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				write(n.Key)
				write(n.Value)
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				write(atomicTarget(info, call))
			}
		case *ast.SelectorExpr:
			if _, v := field(n); v != nil {
				if writes[n] {
					u.set[v] = true
				} else {
					u.read[v] = true
				}
			}
		case *ast.UnaryExpr:
			if _, v := field(n.X); v != nil && n.Op == token.AND {
				u.set[v] = true
			}
		case *ast.CompositeLit:
			st, ok := deref(info.TypeOf(n)).Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok {
							u.set[v.Origin()] = true
						}
					}
				} else {
					u.set[st.Field(i).Origin()] = true
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				u.touch(info.TypeOf(n.X), false, false, map[types.Type]bool{})
			}
		case *ast.CallExpr:
			u.call(info, n)
		}
		return true
	})
}

// call records the fields a call reaches through encoding/json or unsafe.
func (u *usage) call(info *types.Info, call *ast.CallExpr) {
	if tv := info.Types[call.Fun]; tv.IsType() {
		// A conversion to or from unsafe.Pointer: the pointee's bytes are
		// read and written whole.
		if len(call.Args) == 1 {
			from := info.TypeOf(call.Args[0])
			if isUnsafePointer(tv.Type) {
				u.touch(deref(from), false, true, map[types.Type]bool{})
			}
			if isUnsafePointer(from) {
				u.touch(deref(tv.Type), false, true, map[types.Type]bool{})
			}
		}
		return
	}
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	if len(call.Args) == 0 {
		return
	}
	switch obj := obj.(type) {
	case *types.Builtin:
		if obj.Name() == "Sizeof" || obj.Name() == "Alignof" {
			u.touch(info.TypeOf(call.Args[0]), false, true, map[types.Type]bool{})
		}
	case *types.Func:
		if obj.Pkg() != nil && obj.Pkg().Path() == "encoding/json" && (obj.Name() == "Marshal" || obj.Name() == "MarshalIndent" || obj.Name() == "Encode") {
			u.touch(info.TypeOf(call.Args[0]), true, false, map[types.Type]bool{})
		}
	}
}

// touch marks as read, and as set too if set, the fields of the structs
// that t holds: by value, or with json the exported fields through
// pointers, slices and maps as well.
func (u *usage) touch(t types.Type, json, set bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			f := t.Field(i)
			if json && !f.Exported() && !f.Embedded() {
				continue
			}
			u.read[f.Origin()] = true
			if set {
				u.set[f.Origin()] = true
			}
			u.touch(f.Type(), json, set, seen)
		}
	case *types.Array:
		u.touch(t.Elem(), json, set, seen)
	case *types.Pointer:
		if json {
			u.touch(t.Elem(), json, set, seen)
		}
	case *types.Slice:
		if json {
			u.touch(t.Elem(), json, set, seen)
		}
	case *types.Map:
		if json {
			u.touch(t.Elem(), json, set, seen)
		}
	}
}

// atomicTarget is the operand that a sync/atomic Add or Store call
// writes: the receiver of an atomic type's method, or the &operand of the
// package's function. It is nil for any other call.
func atomicTarget(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || !strings.HasPrefix(fn.Name(), "Add") && !strings.HasPrefix(fn.Name(), "Store") {
		return nil
	}
	if fn.Signature().Recv() != nil {
		return sel.X
	}
	if len(call.Args) > 0 {
		if addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && addr.Op == token.AND {
			return addr.X
		}
	}
	return nil
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func isUnsafePointer(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.UnsafePointer
}
func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", root)
}

func newInfo() *types.Info {
	return &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// srcLoader type-checks packages from source: the module's with full
// bodies into one shared types.Info, the standard library's signatures
// only, since only their interfaces matter here.
type srcLoader struct {
	fset    *token.FileSet
	ctx     build.Context
	modPath string
	modDir  string
	pkgs    map[string]*types.Package // by import path
	info    *types.Info               // the module's packages
	files   []*ast.File               // the module's non-test files
}

func (l *srcLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.modDir, 0)
}

func (l *srcLoader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	inModule := l.inModule(path)
	dir := filepath.Join(l.modDir, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
	if !inModule {
		// Resolves the standard library's vendored golang.org/x paths too.
		bp, err := l.ctx.Import(path, srcDir, build.FindOnly)
		if err != nil {
			return nil, err
		}
		path, dir = bp.ImportPath, bp.Dir
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := l.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", l.ctx.GOARCH)}
	info := l.info
	if !inModule {
		conf.IgnoreFuncBodies = true
		conf.Error = func(error) {} // unused imports of the skipped bodies
		info = nil
	}
	p, err := conf.Check(path, l.fset, files, info)
	if err != nil && inModule {
		return nil, err
	}
	if inModule {
		l.files = append(l.files, files...)
	}
	l.pkgs[path] = p
	return p, nil
}

func (l *srcLoader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *srcLoader) inModule(path string) bool {
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

// pkgKey names a module package by its directory below the module root,
// less a leading "internal/"; the root package by the module path.
func (l *srcLoader) pkgKey(p *types.Package) string {
	if p.Path() == l.modPath {
		return l.modPath
	}
	return strings.TrimPrefix(strings.TrimPrefix(p.Path(), l.modPath+"/"), "internal/")
}

func (l *srcLoader) typeName(tn *types.TypeName) string {
	return l.pkgKey(tn.Pkg()) + "." + tn.Name()
}

func (l *srcLoader) declName(fn *types.Func) string {
	name := l.pkgKey(fn.Pkg()) + "."
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name += t.(*types.Named).Obj().Name() + "."
	}
	return name + fn.Name()
}

// isAPI reports whether fn is exported from the package, on an exported
// receiver type if it is a method.
func (l *srcLoader) isAPI(fn *types.Func) bool {
	if !fn.Exported() {
		return false
	}
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return t.(*types.Named).Obj().Exported()
	}
	return true
}

// unnamedStdInterfaces are interfaces the standard library asserts inside
// function bodies, which its signatures-only check does not see: errors.Is,
// errors.As and errors.Unwrap call these methods.
func unnamedStdInterfaces() []types.Type {
	const src = `package p
type (
	unwrap      interface{ Unwrap() error }
	unwrapMulti interface{ Unwrap() []error }
	is          interface{ Is(error) bool }
	as          interface{ As(any) bool }
)`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "std.go", src, 0)
	if err != nil {
		panic(err)
	}
	p, err := new(types.Config).Check("p", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	var out []types.Type
	for _, name := range p.Scope().Names() {
		out = append(out, p.Scope().Lookup(name).Type())
	}
	return out
}

// implemented maps each module method to the interface methods it
// implements: those of every package-level interface of every loaded
// package, of every interface type the module's code spells out, and of
// error.
func (l *srcLoader) implemented() map[*types.Func][]*types.Func {
	byMethod := map[string][]*types.Interface{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 || !it.IsMethodSet() {
			return
		}
		byMethod[it.Method(0).Name()] = append(byMethod[it.Method(0).Name()], it)
	}
	add(types.Universe.Lookup("error").Type())
	for _, t := range unnamedStdInterfaces() {
		add(t)
	}
	var named []*types.Named
	for path, p := range l.pkgs {
		inModule := l.inModule(path)
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			add(tn.Type())
			if n, ok := tn.Type().(*types.Named); ok && inModule && !types.IsInterface(n) {
				named = append(named, n)
			}
		}
	}
	for _, tv := range l.info.Types {
		if tv.IsType() {
			if _, ok := tv.Type.(*types.Interface); ok {
				add(tv.Type)
			}
		}
	}

	impl := map[*types.Func][]*types.Func{}
	for _, n := range named {
		ptr := types.NewPointer(n)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			for _, it := range byMethod[ms.At(i).Obj().Name()] {
				if !types.Implements(ptr, it) {
					continue
				}
				for j := 0; j < it.NumMethods(); j++ {
					m := it.Method(j)
					if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
						fn := sel.Obj().(*types.Func).Origin()
						impl[fn] = append(impl[fn], m)
					}
				}
			}
		}
	}
	return impl
}
