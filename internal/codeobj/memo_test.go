package codeobj

import (
	"errors"
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
		if err := s.PutBuilt("w.pko", "gfx908", sampleSpecs()); err != nil {
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
	if err := s.PutBuilt("w.pko", "gfx908", sampleSpecs()); err != nil {
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
		{"Corrupt", func() error { return s.Corrupt("w.pko", 10) }, false},
		{"CorruptSealed", func() error { return s.CorruptSealed("w.pko", len(data)/2) }, false},
		{"Truncate", func() error { return s.Truncate("w.pko", len(data)-4) }, false},
	} {
		t.Run(hook.name, func(t *testing.T) {
			if err := s.PutBuilt("w.pko", "gfx908", sampleSpecs()); err != nil {
				t.Fatal(err)
			}
			if o, _ := s.Parse("w.pko", data); o != warm {
				t.Fatal("PutBuilt of the same object lost its parse")
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

// parsed keeps BenchmarkStoreParse's results live.
var parsed *Object

// BenchmarkStoreParse measures Store.Parse on a model-shaped object (two
// 256 KB kernels): "hit" is a load of the stored slice, which reuses its
// parse, and "fresh" a load of a copy, which decodes and checks every byte.
func BenchmarkStoreParse(b *testing.B) {
	withCache(b, builtBudget)
	s := NewStore()
	if err := s.PutBuilt("bench.pko", "gfx908", benchSpecs(2, 256<<10)); err != nil {
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
