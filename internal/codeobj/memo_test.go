package codeobj

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestParseMemoSharedAcrossStores puts one built object into two stores and
// parses it from both on many goroutines at once: every caller must get the
// same *Object. Run it with -race.
func TestParseMemoSharedAcrossStores(t *testing.T) {
	withCache(t, builtBudget)
	stores := []*Store{NewStore(), NewStore()}
	for _, s := range stores {
		if err := s.putBuilt("w.pko", "gfx908", sampleSpecs()); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	got := make([]*Object, workers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := stores[g%len(stores)]
			data, err := s.Get("w.pko")
			if err != nil {
				t.Error(err)
				return
			}
			if got[g], err = s.Parse("w.pko", data); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for g, o := range got {
		if o == nil || o != got[0] {
			t.Fatalf("goroutine %d parsed %p, goroutine 0 %p", g, o, got[0])
		}
	}
}

// TestParseMemoOnlyOwnSlice checks that Store.Parse reuses a parse only for
// the exact slice the store holds: a copy, a shorter view and the bytes of
// another path are parsed in full, a damaged stored object never parses,
// and every failure-injection hook and Put start over.
func TestParseMemoOnlyOwnSlice(t *testing.T) {
	withCache(t, builtBudget)
	s := NewStore()
	if err := s.putBuilt("w.pko", "gfx908", sampleSpecs()); err != nil {
		t.Fatal(err)
	}
	data, _ := s.Get("w.pko")
	warm, err := s.Parse("w.pko", data)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := s.Parse("w.pko", data); again != warm {
		t.Fatal("second parse of the stored slice did not reuse the first")
	}
	if o, err := s.Parse("w.pko", slices.Clone(data)); err != nil || o == warm {
		t.Fatalf("parse of a copy = (%p, %v), want a fresh object", o, err)
	}
	if _, err := s.Parse("w.pko", data[:len(data)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("parse of a shorter view: err = %v, want ErrCorrupt", err)
	}
	if o, err := s.Parse("absent.pko", data); err != nil || o == warm {
		t.Fatalf("parse under another path = (%p, %v), want a fresh object", o, err)
	}

	// A damaged stored object fails on every parse of its own slice.
	s.Put("bad.pko", data[:len(data)-1])
	bad, _ := s.Get("bad.pko")
	for i := range 2 {
		if _, err := s.Parse("bad.pko", bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("parse %d of a damaged stored object: err = %v", i, err)
		}
	}

	for _, hook := range []struct {
		name string
		do   func() error
		ok   bool
	}{
		{"Put", func() error { s.Put("w.pko", data); return nil }, true},
		{"Corrupt", func() error { return s.corrupt("w.pko", 10) }, false},
		{"CorruptSealed", func() error { return s.CorruptSealed("w.pko", len(data)/2) }, false},
		{"Truncate", func() error { return s.truncate("w.pko", len(data)-4) }, false},
	} {
		t.Run(hook.name, func(t *testing.T) {
			if err := s.putBuilt("w.pko", "gfx908", sampleSpecs()); err != nil {
				t.Fatal(err)
			}
			if o, _ := s.Parse("w.pko", data); o != warm {
				t.Fatal("putBuilt of the same object lost its parse")
			}
			if err := hook.do(); err != nil {
				t.Fatal(err)
			}
			got, _ := s.Get("w.pko")
			o, err := s.Parse("w.pko", got)
			if o == warm {
				t.Fatalf("parse after %s reused the parse of the replaced bytes", hook.name)
			}
			if (err == nil) != hook.ok {
				t.Fatalf("parse after %s: err = %v", hook.name, err)
			}
		})
	}
}

// TestParseMemoSeededByBuild checks that the worker that builds an object
// parses it and leaves the parse with its holder: after putBuilt and after
// PutBuiltAll, the first load of the stored slice gets that parse, so
// Store.Parse allocates nothing, and it equals a fresh Parse. After Put or
// a failure-injection hook the load parses the new bytes in full and
// returns what Parse returns for them. Stores putting and loading the same
// built objects at once must pass -race.
func TestParseMemoSeededByBuild(t *testing.T) {
	const path = "w.pko"
	puts := []struct {
		name string
		put  func(s *Store) error
	}{
		{"PutBuilt", func(s *Store) error { return s.putBuilt(path, "gfx908", sampleSpecs()) }},
		{"PutBuiltAll", func(s *Store) error {
			return s.PutBuiltAll([]BuildRequest{sizedRequest("before", 100), {Path: path, Arch: "gfx908", Kernels: sampleSpecs()}})
		}},
	}
	for _, p := range puts {
		t.Run(p.name, func(t *testing.T) {
			withCache(t, builtBudget)
			s := NewStore()
			if err := p.put(s); err != nil {
				t.Fatal(err)
			}
			seeded := s.objects[path].obj.Load()
			if seeded == nil {
				t.Fatal("the build left no parse with the holder")
			}
			data, _ := s.Get(path)
			var got *Object
			allocs := testing.AllocsPerRun(10, func() {
				var err error
				if got, err = s.Parse(path, data); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 || got != seeded {
				t.Fatalf("load of a built object: %.1f allocs, object %p, want 0 and the build's %p", allocs, got, seeded)
			}
			fresh, err := Parse(data)
			if err != nil || !reflect.DeepEqual(got, fresh) {
				t.Fatalf("the build's parse differs from a fresh Parse (err %v)", err)
			}
		})
	}

	for _, hook := range []struct {
		name string
		do   func(s *Store, data []byte) error
	}{
		{"Put", func(s *Store, data []byte) error { s.Put(path, data); return nil }},
		{"Corrupt", func(s *Store, _ []byte) error { return s.corrupt(path, 10) }},
		{"CorruptSealed", func(s *Store, data []byte) error { return s.CorruptSealed(path, len(data)/2) }},
		{"Truncate", func(s *Store, data []byte) error { return s.truncate(path, len(data)-4) }},
	} {
		t.Run(hook.name, func(t *testing.T) {
			withCache(t, builtBudget)
			s := NewStore()
			if err := s.putBuilt(path, "gfx908", sampleSpecs()); err != nil {
				t.Fatal(err)
			}
			seeded := s.objects[path].obj.Load()
			data, _ := s.Get(path)
			if err := hook.do(s, data); err != nil {
				t.Fatal(err)
			}
			if s.objects[path].obj.Load() != nil {
				t.Fatalf("%s left a parse with the new holder", hook.name)
			}
			read, _ := s.Get(path)
			got, err := s.Parse(path, read)
			want, wantErr := Parse(read)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("load after %s: err = %v, Parse gives %v", hook.name, err, wantErr)
			}
			if got == seeded || !reflect.DeepEqual(got, want) {
				t.Fatalf("load after %s did not parse the new bytes in full", hook.name)
			}
		})
	}

	t.Run("concurrent", func(t *testing.T) {
		withCache(t, builtBudget)
		const workers, rounds = 4, 8
		var wg sync.WaitGroup
		for g := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := range rounds {
					// Shared objects every worker asks for, and one of its own.
					reqs := []BuildRequest{
						sizedRequest(fmt.Sprintf("shared%d", r), 4<<10),
						sizedRequest(fmt.Sprintf("shared%d", r+1), 4<<10),
						sizedRequest(fmt.Sprintf("own%d_%d", g, r), 2<<10),
					}
					s := NewStore()
					if err := s.PutBuiltAll(reqs); err != nil {
						t.Error(err)
						return
					}
					for _, req := range reqs {
						data, _ := s.Get(req.Path)
						o, err := s.Parse(req.Path, data)
						if err != nil || o != s.objects[req.Path].obj.Load() {
							t.Errorf("worker %d: load of %s = (%p, %v), want the build's parse", g, req.Path, o, err)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}

// parsed keeps BenchmarkStoreParse's results live.
var parsed *Object

// BenchmarkStoreParse measures Store.Parse on a model-shaped object (two
// 256 KB kernels): "hit" is a load of the stored slice, which reuses its
// parse, and "fresh" a load of a copy, which decodes and checks every byte.
func BenchmarkStoreParse(b *testing.B) {
	withCache(b, builtBudget)
	s := NewStore()
	if err := s.putBuilt("bench.pko", "gfx908", benchSpecs(2, 256<<10)); err != nil {
		b.Fatal(err)
	}
	data, _ := s.Get("bench.pko")
	for _, bc := range []struct {
		name string
		read []byte
	}{
		{"hit", data},
		{"fresh", slices.Clone(data)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if _, err := s.Parse("bench.pko", bc.read); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o, err := s.Parse("bench.pko", bc.read)
				if err != nil {
					b.Fatal(err)
				}
				parsed = o
			}
		})
	}
}
