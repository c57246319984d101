package pask

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyExports lists the exported internal functions and methods that
// no non-test file calls but that stay, each with the reason. Keys are
// "<package dir>.<func>" or "<package dir>.<type>.<method>".
var testOnlyExports = map[string]string{
	"internal/backend.Registry.Unload":      "BenchmarkRegistryLoadMiss, gated in BENCH_host.json, evicts its object between loads with it",
	"internal/codeobj.Store.CorruptSealed":  "re-sealing the container CRC needs the trailer format, which only codeobj knows",
	"internal/codeobj.Store.Put":            "tests in six packages store truncated and hand-made bytes no build produces; TestDegradationLadderGolden pins what a truncated object does",
	"internal/device.Stream.Launch":         "the stream goldens and the device tests submit kernels by duration, not by workload",
	"internal/metrics.Breakdown":            "BenchmarkBreakdown, gated in BENCH_host.json, times it",
	"internal/metrics.Report.LookupsPerHit": "public API: pask.Report is an alias of metrics.Report",
	"internal/metrics.Report.Share":         "public API: pask.Report is an alias of metrics.Report",
}

// stdInterfaces are the standard-library interfaces the program hands its
// values to, so the library calls their methods: fmt prints Stringers and
// errors, and net/http serves Handlers.
var stdInterfaces = [][2]string{{"", "error"}, {"fmt", "Stringer"}, {"net/http", "Handler"}}

// TestNoTestOnlyExports fails on an exported function or method under
// internal/ that no non-test file of the repository (bench/, cmd/ and
// examples/ included) references, unless testOnlyExports keeps it. It also
// fails on an allowlist entry that is no longer test-only. It type-checks
// the non-test files and follows what each identifier resolves to, so a
// same-named field or method of another type is not a reference. A method
// reached only through an interface counts as used when non-test code calls
// that interface's method, or when the interface is one of stdInterfaces.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → its non-test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		// The module is pask and the nested bench module pask/bench, so a
		// directory's import path is its path under pask either way.
		ip := strings.TrimSuffix("pask/"+filepath.ToSlash(filepath.Dir(path)), "/.")
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	std := importer.ForCompiler(fset, "source", nil)
	pkgs := map[string]*types.Package{}
	var conf types.Config
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := pkgs[path]; p != nil {
			return p, nil
		}
		if files[path] == nil {
			return std.Import(path)
		}
		p, err := conf.Check(path, fset, files[path], info)
		pkgs[path] = p
		return p, err
	})
	conf.Importer = imp
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	for _, path := range paths {
		if _, err := imp(path); err != nil {
			t.Fatal(err)
		}
	}

	used := map[*types.Func]bool{}
	var ifaceMethods []*types.Func // interface methods non-test code calls
	for _, path := range paths {
		for _, f := range files[path] {
			for _, dl := range f.Decls {
				var self types.Object // a call of a function in its own body is no use
				if fd, ok := dl.(*ast.FuncDecl); ok {
					self = info.Defs[fd.Name]
				}
				ast.Inspect(dl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := info.Uses[id].(*types.Func)
					if !ok || fn.Origin() == self {
						return true
					}
					used[fn.Origin()] = true
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaceMethods = append(ifaceMethods, fn)
					}
					return true
				})
			}
		}
	}

	// A method a concrete type gets called through an interface it
	// implements: mark the method the interface call dispatches to.
	var named []*types.Named
	for _, path := range paths {
		scope := pkgs[path].Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	dispatch := func(iface *types.Interface, pkg *types.Package, method string) {
		for _, n := range named {
			if ptr := types.NewPointer(n); types.Implements(ptr, iface) {
				if fn, ok := types.NewMethodSet(ptr).Lookup(pkg, method).Obj().(*types.Func); ok {
					used[fn.Origin()] = true
				}
			}
		}
	}
	for _, fn := range ifaceMethods {
		dispatch(fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface), fn.Pkg(), fn.Name())
	}
	for _, si := range stdInterfaces {
		scope := types.Universe
		if si[0] != "" {
			p, err := std.Import(si[0])
			if err != nil {
				t.Fatal(err)
			}
			scope = p.Scope()
		}
		iface := scope.Lookup(si[1]).Type().Underlying().(*types.Interface)
		for i := range iface.NumMethods() {
			dispatch(iface, iface.Method(i).Pkg(), iface.Method(i).Name())
		}
	}

	var keys []string
	for _, path := range paths {
		dir := strings.TrimPrefix(path, "pask/")
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range files[path] {
			for _, dl := range f.Decls {
				fd, ok := dl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				key := dir + "." + fd.Name.Name
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					typ := recv.Type()
					if p, ok := typ.(*types.Pointer); ok {
						typ = p.Elem()
					}
					tn := typ.(*types.Named).Obj()
					if !tn.Exported() {
						continue // not reachable outside its package but through an interface
					}
					key = dir + "." + tn.Name() + "." + fd.Name.Name
				}
				_, kept := testOnlyExports[key]
				switch u := used[fn]; {
				case !u && !kept:
					t.Errorf("%s: %s is exported but only tests use it: delete it, test it through what the program uses, or add it to testOnlyExports with the reason", fset.Position(fd.Pos()), key)
				case u && kept:
					t.Errorf("%s: testOnlyExports keeps %s, which non-test code now uses: drop the entry", fset.Position(fd.Pos()), key)
				}
				keys = append(keys, key)
			}
		}
	}
	for key := range testOnlyExports {
		if !slices.Contains(keys, key) {
			t.Errorf("testOnlyExports keeps %s, which is not declared under internal/: drop the entry", key)
		}
	}
}

// importerFunc imports a package by its path.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
