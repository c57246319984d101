package backend

import (
	"errors"
	"slices"
	"testing"
	"time"

	"pask/internal/codeobj"
	"pask/internal/sim"
)

// putBuilt stores codeobj.Build(path, arch, kernels) under path.
func putBuilt(s *codeobj.Store, path, arch string, kernels []codeobj.KernelSpec) error {
	return s.PutBuiltAll([]codeobj.BuildRequest{{Path: path, Arch: arch, Kernels: kernels}})
}

// objSize returns the size of the object stored at path.
func objSize(t testing.TB, s *codeobj.Store, path string) int64 {
	t.Helper()
	data, err := s.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(data))
}

// corrupt stores a copy of the object at path with the byte at offset
// flipped, and truncate its first n bytes: the damage a bad disk does.
func corrupt(s *codeobj.Store, path string, offset int) error {
	data, err := s.Get(path)
	if err != nil {
		return err
	}
	data = slices.Clone(data)
	data[offset] ^= 0xff
	s.Put(path, data)
	return nil
}

func truncate(s *codeobj.Store, path string, n int) error {
	data, err := s.Get(path)
	if err != nil {
		return err
	}
	s.Put(path, data[:n])
	return nil
}

// cloneReads hands every read on as a fresh copy, so no load can reuse the
// store's parse: each one decodes and checks every byte, as every load did
// before the store kept parses.
type cloneReads struct{ noFaults }

func (cloneReads) StoreGet(_ string, data []byte) ([]byte, error) { return slices.Clone(data), nil }

// corruptReads hands every read on as a copy with one byte flipped.
type corruptReads struct{ noFaults }

func (corruptReads) StoreGet(_ string, data []byte) ([]byte, error) {
	data = slices.Clone(data)
	data[len(data)/2] ^= 0xff
	return data, nil
}

// loadResult is what one ModuleLoad returned and the virtual time it took.
type loadResult struct {
	obj  *codeobj.Object
	err  error
	took time.Duration
}

func timedLoad(p *sim.Proc, rt *Registry, path string) loadResult {
	start := p.Now()
	m, err := rt.ModuleLoad(p, path)
	r := loadResult{err: err, took: p.Now() - start}
	if m != nil {
		r.obj = m.Object
	}
	return r
}

// runProc runs fn as the only process of env and fails t on a simulation
// error.
func runProc(t *testing.T, env *sim.Env, rt *Registry, fn func(p *sim.Proc)) {
	t.Helper()
	env.Spawn("memo", func(p *sim.Proc) {
		defer rt.GPU().CloseAll()
		fn(p)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestParseMemoDamageLoadsAsBefore loads an object, unloads it, damages or
// replaces it in the store, and loads it again. The second load must return
// the same error (or the new object) and charge the same virtual time as on
// a registry whose every read is a fresh copy, which parses every load in
// full.
func TestParseMemoDamageLoadsAsBefore(t *testing.T) {
	const path = "memo.pko"
	specs := []codeobj.KernelSpec{
		{Name: "memo_main", Pattern: "GEMM", CodeSize: 8 << 10},
		{Name: "memo_helper", Pattern: "GEMM", CodeSize: 2 << 10},
	}
	replacement, err := codeobj.Build(path, "gfx908", []codeobj.KernelSpec{{Name: "memo_other", Pattern: "Direct", CodeSize: 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		damage func(s *codeobj.Store, size int) error
		want   error // nil: the load succeeds with the replacement
	}{
		{"Corrupt", func(s *codeobj.Store, _ int) error { return corrupt(s, path, 0) }, codeobj.ErrBadMagic},
		{"CorruptSealed", func(s *codeobj.Store, size int) error { return s.CorruptSealed(path, size/2) }, codeobj.ErrChecksum},
		{"Truncate", func(s *codeobj.Store, _ int) error { return truncate(s, path, 8) }, codeobj.ErrTruncated},
		{"Put", func(s *codeobj.Store, _ int) error { s.Put(path, replacement); return nil }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(inj FaultInjector) (first, second loadResult) {
				store := codeobj.NewStore()
				if err := putBuilt(store, path, "gfx908", specs); err != nil {
					t.Fatal(err)
				}
				env, _, rt := benchRuntime(store, 0)
				rt.SetFaults(inj)
				runProc(t, env, rt, func(p *sim.Proc) {
					first = timedLoad(p, rt, path)
					rt.Unload(path)
					if err := tc.damage(store, int(objSize(t, store, path))); err != nil {
						t.Error(err)
						return
					}
					second = timedLoad(p, rt, path)
				})
				return first, second
			}
			first, got := run(nil)
			_, want := run(cloneReads{})
			if first.err != nil {
				t.Fatalf("first load: %v", first.err)
			}
			if tc.want != nil {
				if !errors.Is(got.err, tc.want) {
					t.Fatalf("load after %s: err = %v, want %v", tc.name, got.err, tc.want)
				}
			} else {
				if got.err != nil {
					t.Fatalf("load after %s: %v", tc.name, got.err)
				}
				if got.obj == first.obj {
					t.Fatal("load after Put returned the replaced object")
				}
				if _, ok := got.obj.Symbol("memo_other"); !ok {
					t.Fatal("load after Put lacks the replacement's symbol")
				}
			}
			if errString(got.err) != errString(want.err) || got.took != want.took {
				t.Fatalf("load after %s: (%v, %v), full parse gives (%v, %v)", tc.name, got.err, got.took, want.err, want.took)
			}
		})
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestParseMemoFaultedReads checks that a warm parse never hides an
// injected read fault, and that an injector that passes reads through still
// gets the stored object's one parse.
func TestParseMemoFaultedReads(t *testing.T) {
	store := benchStore(t, 1, 8<<10)
	path := benchPath(0)
	env, _, rt := benchRuntime(store, 0)
	runProc(t, env, rt, func(p *sim.Proc) {
		warm := timedLoad(p, rt, path)
		if warm.err != nil {
			t.Errorf("warm load: %v", warm.err)
			return
		}
		rt.Unload(path)
		rt.SetFaults(noFaults{})
		if r := timedLoad(p, rt, path); r.err != nil || r.obj != warm.obj || r.took != warm.took {
			t.Errorf("pass-through load = (%p, %v, %v), want the warm (%p, nil, %v)", r.obj, r.err, r.took, warm.obj, warm.took)
		}
		rt.Unload(path)
		rt.SetFaults(corruptReads{})
		if r := timedLoad(p, rt, path); !errors.Is(r.err, codeobj.ErrChecksum) {
			t.Errorf("load of a corrupted read with a warm parse: err = %v, want %v", r.err, codeobj.ErrChecksum)
		}
		rt.SetFaults(nil)
		rt.ClearFailures()
		res, err := rt.RegisterResident(p, path)
		if err != nil || res.Object != warm.obj {
			t.Errorf("RegisterResident = (%v, %v), want the warm object", res, err)
		}
	})
}
