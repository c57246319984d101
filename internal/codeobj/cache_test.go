package codeobj

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// withCache swaps the cache behind Store.PutBuilt for a fresh one with the
// given budget until the test ends.
func withCache(tb testing.TB, budget int) *buildCache {
	tb.Helper()
	prev := built
	built = newBuildCache(budget)
	tb.Cleanup(func() { built = prev })
	return built
}

// checkBytes asserts the cache's byte count matches its entries and stays
// within the budget.
func checkBytes(t *testing.T, c *buildCache) {
	t.Helper()
	sum := 0
	for _, e := range c.entries {
		sum += len(e.obj.data)
	}
	if sum != c.bytes || c.bytes > c.budget {
		t.Fatalf("cache holds %d bytes, counted %d, budget %d", sum, c.bytes, c.budget)
	}
}

// TestPutBuiltSharesAndIsolates checks that two stores putting the same
// specs share one backing array, and that the failure-injection hooks on
// one store never reach the other's bytes.
func TestPutBuiltSharesAndIsolates(t *testing.T) {
	withCache(t, builtBudget)
	a, b := NewStore(), NewStore()
	for _, s := range []*Store{a, b} {
		if err := s.PutBuilt("w.pko", "gfx908", sampleSpecs()); err != nil {
			t.Fatal(err)
		}
	}
	da, _ := a.Get("w.pko")
	db, _ := b.Get("w.pko")
	if &da[0] != &db[0] {
		t.Fatal("second PutBuilt did not share the first one's bytes")
	}
	want, fp := slices.Clone(db), b.Fingerprint()
	for _, hook := range []struct {
		name string
		do   func() error
	}{
		{"Corrupt", func() error { return a.Corrupt("w.pko", 10) }},
		{"CorruptSealed", func() error { return a.CorruptSealed("w.pko", len(da)/2) }},
		{"Truncate", func() error { return a.Truncate("w.pko", 8) }},
	} {
		if err := hook.do(); err != nil {
			t.Fatalf("%s: %v", hook.name, err)
		}
		got, _ := a.Get("w.pko")
		if _, err := Parse(got); err == nil {
			t.Fatalf("%s: damaged object still parses", hook.name)
		}
		got, _ = b.Get("w.pko")
		if !bytes.Equal(got, want) || b.Fingerprint() != fp {
			t.Fatalf("%s on one store changed the other", hook.name)
		}
		if _, err := Parse(got); err != nil {
			t.Fatalf("%s: other store's object no longer parses: %v", hook.name, err)
		}
	}
	c := NewStore()
	if err := c.PutBuilt("w.pko", "gfx908", sampleSpecs()); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get("w.pko"); !bytes.Equal(got, want) {
		t.Fatal("a later PutBuilt got damaged bytes")
	}
}

// sizedSpec returns a one-kernel spec list whose built size depends only on
// codeSize and the length of name.
func sizedSpec(name string, codeSize int) []KernelSpec {
	return []KernelSpec{{Name: name, Pattern: "GEMM", CodeSize: codeSize}}
}

// TestBuildCachePolicy walks a sequence by hand through a cache that holds
// two objects: admission needs more requests than every entry it evicts,
// ties evict the older entry, and an object over the budget is never kept.
func TestBuildCachePolicy(t *testing.T) {
	one, err := Build("a.pko", "gfx908", sizedSpec("a", 1000))
	if err != nil {
		t.Fatal(err)
	}
	c := newBuildCache(2*len(one) + len(one)/2)
	steps := []struct {
		obj  string
		hit  bool
		held string // cached objects after the step
	}{
		{"a", false, "a"},
		{"b", false, "ab"},
		{"c", false, "ab"}, // one request does not beat a's one
		{"c", false, "bc"}, // two beat a's one; a is older than b
		{"a", false, "ac"}, // two beat b's one
		{"c", true, "ac"},
		{"b", false, "ac"}, // two do not beat a's two
		{"a", true, "ac"},
		{"z", false, "ac"}, // z is over the budget: never kept
		{"z", false, "ac"},
	}
	for i, st := range steps {
		size := 1000
		if st.obj == "z" {
			size = 3 * len(one)
		}
		hits := c.hits
		h, err := c.get(st.obj+".pko", "gfx908", sizedSpec(st.obj, size))
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Build(st.obj+".pko", "gfx908", sizedSpec(st.obj, size))
		if !bytes.Equal(h.data, want) {
			t.Fatalf("step %d: cache returned other bytes than Build", i)
		}
		var held []byte
		for _, e := range c.entries {
			held = append(held, e.key[4]) // first byte of the path
		}
		slices.Sort(held)
		if hit := c.hits > hits; hit != st.hit || string(held) != st.held {
			t.Fatalf("step %d (%s): hit %v, holding %q; want hit %v, holding %q", i, st.obj, hit, held, st.hit, st.held)
		}
		checkBytes(t, c)
	}
	if c.evictions != 2 {
		t.Fatalf("evictions = %d, want 2", c.evictions)
	}
}

// TestBuildCacheWrappedSize checks that a code size too large for the
// format's 32-bit size field, which would wrap onto a cached object's
// descriptor, reaches Build and fails instead of hitting.
func TestBuildCacheWrappedSize(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("needs a 64-bit int")
	}
	c := newBuildCache(builtBudget)
	if _, err := c.get("w.pko", "gfx908", sizedSpec("w", 100)); err != nil {
		t.Fatal(err)
	}
	shift := 32
	if _, err := c.get("w.pko", "gfx908", sizedSpec("w", 100+1<<shift)); err == nil {
		t.Fatal("a code size past 32 bits hit the cache")
	}
}

// TestBuildCacheDeterministic replays one skewed request sequence, several
// times larger than the budget, through two fresh caches: both must give
// the same hits, evictions and contents at every step, stay within the
// budget, and never keep the object larger than the budget.
func TestBuildCacheDeterministic(t *testing.T) {
	const budget = 64 << 10
	rng := rand.New(rand.NewSource(7))
	seq := make([]int, 400)
	for i := range seq {
		seq[i] = int(rng.ExpFloat64()*4) % 16
	}
	spec := func(i int) (string, []KernelSpec) {
		if i == 15 {
			return "big.pko", sizedSpec("big", budget+1)
		}
		return fmt.Sprintf("o%d.pko", i), sizedSpec(fmt.Sprintf("k%d", i), 4<<10+i*1500)
	}
	replay := func() []string {
		c := newBuildCache(budget)
		var trace []string
		for _, i := range seq {
			path, ks := spec(i)
			if _, err := c.get(path, "gfx908", ks); err != nil {
				t.Fatal(err)
			}
			checkBytes(t, c)
			var held []string
			for _, e := range c.entries {
				if len(e.obj.data) > budget {
					t.Fatalf("cached an object of %d bytes over a budget of %d", len(e.obj.data), budget)
				}
				held = append(held, e.key)
			}
			slices.Sort(held)
			trace = append(trace, fmt.Sprint(c.hits, c.evictions, held))
		}
		if c.hits == 0 || c.evictions == 0 {
			t.Fatalf("sequence gave %d hits and %d evictions; it must exercise both", c.hits, c.evictions)
		}
		return trace
	}
	first, second := replay(), replay()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("step %d differs between runs:\n%s\n%s", i, first[i], second[i])
		}
	}
}

// TestPutBuiltParallel puts overlapping specs into one store per goroutine
// through a cache small enough to evict, and checks every store gets the
// bytes Build returns. Run it with -race.
func TestPutBuiltParallel(t *testing.T) {
	const objects, workers = 8, 8
	c := withCache(t, 3*(12<<10))
	want := make([][]byte, objects)
	for i := range want {
		var err error
		if want[i], err = Build(fmt.Sprintf("p%d.pko", i), "gfx908", sizedSpec(fmt.Sprintf("p%d", i), 8<<10+i*512)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers) // each worker sends at most once
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			s := NewStore()
			for n := 0; n < 60; n++ {
				i := rng.Intn(objects)
				path := fmt.Sprintf("p%d.pko", i)
				if err := s.PutBuilt(path, "gfx908", sizedSpec(fmt.Sprintf("p%d", i), 8<<10+i*512)); err != nil {
					errs <- err
					return
				}
				if got, _ := s.Get(path); !bytes.Equal(got, want[i]) {
					errs <- fmt.Errorf("goroutine %d: %s differs from Build", g, path)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkBytes(t, c)
}

// BenchmarkPutBuilt measures PutBuilt on a model-shaped object (two 256 KB
// kernels) when the cache holds it and when every request is new.
func BenchmarkPutBuilt(b *testing.B) {
	specs := benchSpecs(2, 256<<10)
	b.Run("hit", func(b *testing.B) {
		withCache(b, builtBudget)
		s := NewStore()
		if err := s.PutBuilt("bench.pko", "gfx908", specs); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.PutBuilt("bench.pko", "gfx908", specs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		withCache(b, builtBudget)
		// A new arch per request makes each one a distinct object under
		// the same path, so the store keeps only the last.
		archs := make([]string, b.N)
		for i := range archs {
			archs[i] = fmt.Sprintf("gfx%d", i)
		}
		s := NewStore()
		b.ReportAllocs()
		b.ResetTimer()
		for _, arch := range archs {
			if err := s.PutBuilt("bench.pko", arch, specs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
