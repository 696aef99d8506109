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

// TestNoTestOnlyCode is the gate for "no machinery that only tests call":
// every top-level function and method of the module's non-test code must
// have a use in some non-test file, or be listed in testOnlyAllowed with
// the reason it stays. The frozen bench/ module counts as a caller; the
// names only it holds alive are logged. Run it alone with
//
//	go test -run '^TestNoTestOnlyCode$' .
func TestNoTestOnlyCode(t *testing.T) {
	rep, err := findTestOnlyCode(".", []string{"bench"}, testOnlyAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.callerOnly {
		t.Logf("held alive only by bench/: %s (%s, %d lines)", d.name, d.pos, d.lines)
	}
	for _, d := range rep.dead {
		t.Errorf("%s (%s, %d lines) has no use outside _test.go files: delete it, or allowlist it with a reason", d.name, d.pos, d.lines)
	}
	for _, s := range rep.stale {
		t.Errorf("stale testOnlyAllowed entry: %s", s)
	}
}

// TestDeadcodeFixture runs the checker over testdata/deadcode, a module
// whose declarations each say whether they must be reported.
func TestDeadcodeFixture(t *testing.T) {
	rep, err := findTestOnlyCode("testdata/deadcode", []string{"ext"}, map[string]string{
		"lib.Allowed": "kept on purpose",
		"lib.Used":    "stale: main calls it",
		"lib.Gone":    "stale: no such function",
	})
	if err != nil {
		t.Fatal(err)
	}
	names := func(ds []deadDecl) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.name)
		}
		slices.Sort(out)
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"reported", names(rep.dead), []string{"lib.OnlyTests", "lib.Square.Name", "lib.recurse"}},
		{"held alive by ext", names(rep.callerOnly), []string{"lib.ExtOnly"}},
		{"stale", rep.stale, []string{
			"lib.Gone: no such function or method",
			"lib.Used: has a caller outside _test.go files",
		}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s: %q, want %q", c.what, c.got, c.want)
		}
	}
}

// testOnlyAllowed names the functions and methods that keep no non-test
// caller on purpose, each with its reason. "mobiceal.*" stands for every
// exported name of the root package: the library API, whose callers live
// outside the module. An entry that is gone, or that has gained a caller,
// fails the gate.
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

	// The deniability game's surface, which ROADMAP direction 2 gives
	// callers.
	"model.SetupMobiCeal":               "the formal Setup of Sec. III-B, for the multi-snapshot game runner",
	"adversary.AnalyzeSeries":           "the multi-checkpoint detector, for the multi-snapshot game runner",
	"model.MobiCealScheme.VolumeCount":  "the Scheme interface of Sec. III-B, which the game runner calls",
	"model.MobiCealScheme.VolumeBlocks": "the Scheme interface of Sec. III-B, which the game runner calls",
	"model.MobiCealScheme.Read":         "the Scheme interface of Sec. III-B, which the game runner calls",
	"model.MobiCealScheme.Write":        "the Scheme interface of Sec. III-B, which the game runner calls",

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

// deadDecl is one top-level function or method the checker reports.
type deadDecl struct {
	name  string // pkg.Func or pkg.Type.Method; pkg is the directory below the module root, less "internal/"
	pos   string // file:line below the module root
	lines int
}

type deadReport struct {
	dead       []deadDecl // no use outside _test.go files, not allowlisted
	callerOnly []deadDecl // used only by the caller directories
	stale      []string   // allowlist entries that are gone or have gained a caller
}

// findTestOnlyCode type-checks the non-test files of the module rooted at
// root, picked by go/build as the compiler would pick them, and of each
// directory in callerDirs (other modules that import it, read only as
// callers). A function or method counts as reached when some non-test
// file other than its own body uses it, or when its receiver type
// implements an interface that contains it: one of the standard library,
// or one of the module whose method some non-test code calls.
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
		if _, err := conf.Check(bp.ImportPath, l.fset, files, callerInfo); err != nil {
			return nil, fmt.Errorf("caller %s: %w", dir, err)
		}
	}

	// The module's declarations, and the span of each so that a
	// function's uses of itself do not count.
	type decl struct {
		deadDecl
		obj        *types.Func
		start, end token.Pos
	}
	var decls []decl
	byObj := map[*types.Func]*decl{}
	for _, f := range l.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			obj := l.info.Defs[fd.Name].(*types.Func)
			if fd.Recv == nil && fd.Name.Name == "main" && obj.Pkg().Name() == "main" {
				continue
			}
			p := l.fset.Position(fd.Pos())
			file, _ := filepath.Rel(root, p.Filename)
			decls = append(decls, decl{
				deadDecl: deadDecl{
					name:  l.declName(obj),
					pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(file), p.Line),
					lines: l.fset.Position(fd.End()).Line - p.Line + 1,
				},
				obj: obj, start: fd.Pos(), end: fd.End(),
			})
		}
	}
	for i := range decls {
		byObj[decls[i].obj] = &decls[i]
	}
	uses := func(info *types.Info) map[*types.Func]bool {
		used := map[*types.Func]bool{}
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d := byObj[fn]; d != nil && id.Pos() >= d.start && id.Pos() < d.end {
				continue
			}
			used[fn] = true
		}
		return used
	}
	used, callerUsed := uses(l.info), uses(callerInfo)
	// The standard library's calls through its interfaces are out of
	// sight, so its interfaces count whole.
	impl := l.implemented()
	reached := func(fn *types.Func, used map[*types.Func]bool) bool {
		for _, m := range impl[fn] {
			if m.Pkg() == nil || !l.inModule(m.Pkg().Path()) || used[m] {
				return true
			}
		}
		return false
	}

	var rep deadReport
	hit := map[string]bool{}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		if used[d.obj] || reached(d.obj, used) {
			continue
		}
		if callerUsed[d.obj] || reached(d.obj, callerUsed) {
			rep.callerOnly = append(rep.callerOnly, d.deadDecl)
			continue
		}
		key := d.name
		if _, ok := allow[key]; !ok && l.isAPI(d.obj) {
			key = l.pkgKey(d.obj.Pkg()) + ".*"
		}
		if _, ok := allow[key]; ok {
			hit[key] = true
			continue
		}
		rep.dead = append(rep.dead, d.deadDecl)
	}
	for name := range allow {
		switch {
		case hit[name]:
		case strings.HasSuffix(name, ".*"):
			rep.stale = append(rep.stale, name+": matches no function without a caller")
		case declared[name]:
			rep.stale = append(rep.stale, name+": has a caller outside _test.go files")
		default:
			rep.stale = append(rep.stale, name+": no such function or method")
		}
	}
	slices.Sort(rep.stale)
	return &rep, nil
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
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
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
