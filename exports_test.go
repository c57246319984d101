package pask

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports lists the exported internal functions and methods that
// no non-test file calls but that stay, each with the reason. Keys are
// "<package dir>.<func>" or "<package dir>.<type>.<method>".
var testOnlyExports = map[string]string{
	"internal/backend.Registry.Unload":      "BenchmarkRegistryLoadMiss, gated in BENCH_host.json, evicts its object between loads with it",
	"internal/codeobj.Store.CorruptSealed":  "re-sealing the container CRC needs the trailer format, which only codeobj knows",
	"internal/device.Stream.Launch":         "the stream goldens and the device tests submit kernels by duration, not by workload",
	"internal/metrics.Report.LookupsPerHit": "public API: pask.Report is an alias of metrics.Report",
	"internal/metrics.Report.Share":         "public API: pask.Report is an alias of metrics.Report",
	"internal/tensor.ParseLayout":           "only TestLayoutRoundTrip calls it; deleting the tensor trio and its tests is a ROADMAP item",
	"internal/tensor.Tensor.Quantize":       "only the TestQuantize* tests call it; deleting the tensor trio and its tests is a ROADMAP item",
	"internal/tensor.Tensor.ToLayout":       "only the tensor tests call it; deleting the tensor trio and its tests is a ROADMAP item",
}

// TestNoTestOnlyExports fails on an exported function or method under
// internal/ that no non-test file of the repository (bench/, cmd/ and
// examples/ included) references, unless testOnlyExports keeps it. It also
// fails on an allowlist entry that is no longer test-only. References are
// matched by name: a package function by its package and name, a method by
// its name on any value.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key    string // allowlist key
		fn     string // function or method name
		method bool
		pos    token.Position
	}
	var decls []decl
	pkgRefs := map[string]bool{}    // "<import path>.<name>" selected through an import
	localRefs := map[string]bool{}  // "<package dir>.<name>" used unqualified
	methodRefs := map[string]bool{} // names selected on a value
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
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // local name → import path
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		declared := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			d := decl{key: dir + "." + fd.Name.Name, fn: fd.Name.Name, method: fd.Recv != nil, pos: fset.Position(fd.Pos())}
			if d.method {
				typ := fd.Recv.List[0].Type
				if st, ok := typ.(*ast.StarExpr); ok {
					typ = st.X
				}
				switch x := typ.(type) {
				case *ast.IndexExpr:
					typ = x.X
				case *ast.IndexListExpr:
					typ = x.X
				}
				recv := typ.(*ast.Ident)
				if !recv.IsExported() {
					continue // not reachable outside its package but through an interface
				}
				d.key = dir + "." + recv.Name + "." + fd.Name.Name
			}
			decls = append(decls, d)
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" && id.Obj == nil {
					pkgRefs[imports[id.Name]+"."+x.Sel.Name] = true
				} else {
					methodRefs[x.Sel.Name] = true
				}
				ast.Inspect(x.X, visit)
				return false
			case *ast.Ident:
				if !declared[x] {
					localRefs[dir+"."+x.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := func(d decl) bool {
		if d.method {
			return methodRefs[d.fn]
		}
		return pkgRefs["pask/"+d.key] || localRefs[d.key]
	}
	var keys []string
	for _, d := range decls {
		_, kept := testOnlyExports[d.key]
		switch u := used(d); {
		case !u && !kept:
			t.Errorf("%s: %s is exported but only tests use it: delete it, test it through what the program uses, or add it to testOnlyExports with the reason", d.pos, d.key)
		case u && kept:
			t.Errorf("%s: testOnlyExports keeps %s, which non-test code now uses: drop the entry", d.pos, d.key)
		}
		keys = append(keys, d.key)
	}
	for key := range testOnlyExports {
		if !slices.Contains(keys, key) {
			t.Errorf("testOnlyExports keeps %s, which is not declared under internal/: drop the entry", key)
		}
	}
}
