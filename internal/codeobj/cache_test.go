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

// withCache swaps the cache behind Store.PutBuiltAll for a fresh one with the
// given budget until the test ends.
func withCache(tb testing.TB, budget int) *buildCache {
	tb.Helper()
	prev := built
	built = newBuildCache(budget)
	tb.Cleanup(func() { built = prev })
	return built
}

// getOne runs a batch of one request through c.
func getOne(c *buildCache, path, arch string, kernels []KernelSpec) (*stored, error) {
	var hs [1]*stored
	_, err := c.getAll([]BuildRequest{{Path: path, Arch: arch, Kernels: kernels}}, hs[:])
	return hs[0], err
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
		if err := s.putBuilt("w.pko", "gfx908", sampleSpecs()); err != nil {
			t.Fatal(err)
		}
	}
	da, _ := a.Get("w.pko")
	db, _ := b.Get("w.pko")
	if &da[0] != &db[0] {
		t.Fatal("second putBuilt did not share the first one's bytes")
	}
	want, fp := slices.Clone(db), b.Fingerprint()
	for _, hook := range []struct {
		name string
		do   func() error
	}{
		{"Corrupt", func() error { return a.corrupt("w.pko", 10) }},
		{"CorruptSealed", func() error { return a.CorruptSealed("w.pko", len(da)/2) }},
		{"Truncate", func() error { return a.truncate("w.pko", 8) }},
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
	if err := c.putBuilt("w.pko", "gfx908", sampleSpecs()); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get("w.pko"); !bytes.Equal(got, want) {
		t.Fatal("a later putBuilt got damaged bytes")
	}
}

// sizedSpec returns a one-kernel spec list whose built size depends only on
// codeSize and the length of name.
func sizedSpec(name string, codeSize int) []KernelSpec {
	return []KernelSpec{{Name: name, Pattern: "GEMM", CodeSize: codeSize}}
}

// sizedRequest asks for name.pko holding sizedSpec(name, codeSize).
func sizedRequest(name string, codeSize int) BuildRequest {
	return BuildRequest{Path: name + ".pko", Arch: "gfx908", Kernels: sizedSpec(name, codeSize)}
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
		h, err := getOne(c, st.obj+".pko", "gfx908", sizedSpec(st.obj, size))
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
	if _, err := getOne(c, "w.pko", "gfx908", sizedSpec("w", 100)); err != nil {
		t.Fatal(err)
	}
	shift := 32
	if _, err := getOne(c, "w.pko", "gfx908", sizedSpec("w", 100+1<<shift)); err == nil {
		t.Fatal("a code size past 32 bits hit the cache")
	}
}

// skewedRequests returns 400 requests over 16 objects, skewed towards the
// first few and several times larger than budget; one object is larger
// than the budget.
func skewedRequests(budget int) []BuildRequest {
	rng := rand.New(rand.NewSource(7))
	reqs := make([]BuildRequest, 400)
	for n := range reqs {
		i := int(rng.ExpFloat64()*4) % 16
		reqs[n] = BuildRequest{Path: fmt.Sprintf("o%d.pko", i), Arch: "gfx908", Kernels: sizedSpec(fmt.Sprintf("k%d", i), 4<<10+i*1500)}
		if i == 15 {
			reqs[n] = BuildRequest{Path: "big.pko", Arch: "gfx908", Kernels: sizedSpec("big", budget+1)}
		}
	}
	return reqs
}

// cacheState renders what the cache has decided so far: hits, evictions,
// bytes held and the held descriptors in order. Callers hold mu or own c.
func cacheState(c *buildCache) string {
	held := make([]string, 0, len(c.entries))
	for _, e := range c.entries {
		held = append(held, e.key)
	}
	slices.Sort(held)
	return fmt.Sprint(c.hits, c.evictions, c.bytes, held)
}

// replay runs reqs through a fresh cache of the given budget in batches of
// n and returns the cache's state after each request, read inside the
// batch. It checks every holder against Build and, after every batch, the
// cache's bytes.
func replay(t *testing.T, budget int, reqs []BuildRequest, n int) ([]string, *buildCache) {
	t.Helper()
	c := newBuildCache(budget)
	var trace []string
	c.observe = func() { trace = append(trace, cacheState(c)) }
	want := map[string][]byte{}
	for len(reqs) > 0 {
		batch := reqs[:min(n, len(reqs))]
		reqs = reqs[len(batch):]
		hs := make([]*stored, len(batch))
		if _, err := c.getAll(batch, hs); err != nil {
			t.Fatal(err)
		}
		checkBytes(t, c)
		for _, e := range c.entries {
			if len(e.obj.data) > budget {
				t.Fatalf("cached an object of %d bytes over a budget of %d", len(e.obj.data), budget)
			}
		}
		for i, r := range batch {
			if want[r.Path] == nil {
				want[r.Path], _ = Build(r.Path, r.Arch, r.Kernels)
			}
			if !bytes.Equal(hs[i].data, want[r.Path]) {
				t.Fatalf("batch of %d: %s differs from Build", n, r.Path)
			}
		}
	}
	return trace, c
}

// TestBuildCacheDeterministic replays one skewed request sequence, several
// times larger than the budget, through two fresh caches: both must give
// the same hits, evictions and contents at every step, stay within the
// budget, and never keep the object larger than the budget.
func TestBuildCacheDeterministic(t *testing.T) {
	const budget = 64 << 10
	reqs := skewedRequests(budget)
	first, c := replay(t, budget, reqs, 1)
	if c.hits == 0 || c.evictions == 0 {
		t.Fatalf("sequence gave %d hits and %d evictions; it must exercise both", c.hits, c.evictions)
	}
	second, _ := replay(t, budget, reqs, 1)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("step %d differs between runs:\n%s\n%s", i, first[i], second[i])
		}
	}
}

// TestBuildCacheBatchesMatchSerial replays request sequences in batches of
// 7 and in one batch, and checks that the cache's hits, evictions and held
// objects after every request equal those of one request per batch: the
// skewed sequence, a batch that repeats one descriptor, and a batch that
// holds an object over the budget and walks the admission policy.
func TestBuildCacheBatchesMatchSerial(t *testing.T) {
	const budget = 64 << 10
	a, b, c, big := sizedRequest("a", 25<<10), sizedRequest("b", 25<<10), sizedRequest("c", 25<<10), sizedRequest("z", budget+1)
	for _, tc := range []struct {
		name string
		reqs []BuildRequest
	}{
		{"skewed", skewedRequests(budget)},
		{"repeated descriptor", []BuildRequest{a, a, a, b, a, c, c, c, a, b, b, b, b}},
		{"over budget", []BuildRequest{a, big, b, big, c, c, big, a, a, big, c}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, _ := replay(t, budget, tc.reqs, 1)
			if len(serial) != len(tc.reqs) {
				t.Fatalf("observed %d requests, want %d", len(serial), len(tc.reqs))
			}
			for _, n := range []int{7, len(tc.reqs)} {
				got, _ := replay(t, budget, tc.reqs, n)
				for i := range serial {
					if got[i] != serial[i] {
						t.Fatalf("batches of %d: request %d leaves\n%s\nwant\n%s", n, i, got[i], serial[i])
					}
				}
			}
		})
	}
}

// TestPutBuiltAllErrorMatchesSerial puts a batch whose 5th request Build
// rejects, and checks that the error, the store's contents and the cache's
// state equal those putBuilt calls stopping at the first error leave.
func TestPutBuiltAllErrorMatchesSerial(t *testing.T) {
	const budget = 48 << 10
	a, b, c := sizedRequest("a", 20<<10), sizedRequest("b", 20<<10), sizedRequest("c", 20<<10)
	for _, bad := range []struct {
		name    string
		kernels []KernelSpec
	}{
		{"duplicate symbol", []KernelSpec{{Name: "d", CodeSize: 64}, {Name: "e", CodeSize: 64}, {Name: "d", CodeSize: 64}}},
		{"code size", sizedSpec("w", 0)},
		{"no kernels", nil},
	} {
		t.Run(bad.name, func(t *testing.T) {
			reqs := []BuildRequest{a, b, a, c, {Path: "bad.pko", Arch: "gfx908", Kernels: bad.kernels}, b, sizedRequest("later", 64)}
			serialCache := withCache(t, budget)
			serial := NewStore()
			var serialErr error
			for _, r := range reqs {
				if serialErr = serial.putBuilt(r.Path, r.Arch, r.Kernels); serialErr != nil {
					break
				}
			}
			batchCache := withCache(t, budget)
			batch := NewStore()
			batchErr := batch.PutBuiltAll(reqs)
			if serialErr == nil || batchErr == nil || batchErr.Error() != serialErr.Error() {
				t.Fatalf("batch error %v, serial error %v; want the same non-nil error", batchErr, serialErr)
			}
			if got, want := batch.Paths(), serial.Paths(); !slices.Equal(got, want) || !slices.Equal(want, []string{"a.pko", "b.pko", "c.pko"}) {
				t.Fatalf("batch stored %v, serial stored %v; want [a.pko b.pko c.pko]", got, want)
			}
			if batch.Fingerprint() != serial.Fingerprint() {
				t.Fatal("batch and serial stores hold different bytes")
			}
			got := fmt.Sprint(cacheState(batchCache), batchCache.counts)
			want := fmt.Sprint(cacheState(serialCache), serialCache.counts)
			if got != want {
				t.Fatalf("batch left the cache at\n%s\nserial left it at\n%s", got, want)
			}
		})
	}
}

// TestPutBuiltAllWaitsForPendingEntries admits objects without building
// them, as a batch still building does, and checks that PutBuiltAll and
// putBuilt callers that hit them return only once the bytes are in, and
// then with the bytes Build returns.
func TestPutBuiltAllWaitsForPendingEntries(t *testing.T) {
	c := withCache(t, builtBudget)
	var reqs []BuildRequest
	for i := range 3 {
		reqs = append(reqs, sizedRequest(fmt.Sprintf("pending%d", i), 16<<10))
	}
	_, jobs, err := c.decide(reqs, make([]*stored, len(reqs)))
	if err != nil {
		t.Fatal(err)
	}
	check := func(s *Store) error {
		for _, r := range reqs {
			want, _ := Build(r.Path, r.Arch, r.Kernels)
			if got, _ := s.Get(r.Path); !bytes.Equal(got, want) {
				return fmt.Errorf("%s differs from Build", r.Path)
			}
		}
		return nil
	}
	decided := make(chan struct{}, 2*len(reqs)) // one send per request the puts below make
	c.observe = func() { decided <- struct{}{} }
	done := make(chan error, 2)
	go func() {
		s := NewStore()
		if err := s.PutBuiltAll(reqs); err != nil {
			done <- err
			return
		}
		done <- check(s)
	}()
	go func() {
		s := NewStore()
		for _, r := range reqs {
			if err := s.putBuilt(r.Path, r.Arch, r.Kernels); err != nil {
				done <- err
				return
			}
		}
		done <- check(s)
	}()
	// The batch decides all its requests and putBuilt its first, then each
	// waits for bytes only the jobs below write.
	for range len(reqs) + 1 {
		<-decided
	}
	select {
	case err := <-done:
		t.Fatalf("a put returned before the entries it hit were built (err %v)", err)
	default:
	}
	for i := range jobs {
		jobs[i].run()
	}
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hits != 2*len(reqs) {
		t.Fatalf("hits = %d, want %d", c.hits, 2*len(reqs))
	}
}

// TestPutBuiltParallel puts overlapping specs into one store per goroutine
// through a cache small enough to evict, and checks every store gets the
// bytes Build returns. Half the goroutines put one object at a time and
// half put batches, so both hit entries that another goroutine admitted
// and is still building. Run it with -race.
func TestPutBuiltParallel(t *testing.T) {
	const objects, workers = 8, 8
	c := withCache(t, 3*(12<<10))
	want := make([][]byte, objects)
	req := func(i int) BuildRequest { return sizedRequest(fmt.Sprintf("p%d", i), 8<<10+i*512) }
	for i := range want {
		var err error
		r := req(i)
		if want[i], err = Build(r.Path, r.Arch, r.Kernels); err != nil {
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
			for n := 0; n < 60; {
				idx := []int{rng.Intn(objects)}
				var err error
				if g%2 == 0 {
					r := req(idx[0])
					err = s.putBuilt(r.Path, r.Arch, r.Kernels)
				} else {
					for range rng.Intn(6) {
						idx = append(idx, rng.Intn(objects))
					}
					var batch []BuildRequest
					for _, i := range idx {
						batch = append(batch, req(i))
					}
					err = s.PutBuiltAll(batch)
				}
				if err != nil {
					errs <- err
					return
				}
				for _, i := range idx {
					if got, _ := s.Get(req(i).Path); !bytes.Equal(got, want[i]) {
						errs <- fmt.Errorf("goroutine %d: p%d.pko differs from Build", g, i)
						return
					}
				}
				n += len(idx)
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

// BenchmarkPutBuilt measures putBuilt on a model-shaped object (two 256 KB
// kernels) when the cache holds it and when every request is new.
func BenchmarkPutBuilt(b *testing.B) {
	specs := benchSpecs(2, 256<<10)
	b.Run("hit", func(b *testing.B) {
		withCache(b, builtBudget)
		s := NewStore()
		if err := s.putBuilt("bench.pko", "gfx908", specs); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.putBuilt("bench.pko", "gfx908", specs); err != nil {
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
			if err := s.putBuilt("bench.pko", arch, specs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestPutBuiltBatchSkipsHeldPaths checks that a Batch keeps the first
// request for each path and none for a path its store holds, as putting
// each object when the store lacks its path would.
func TestPutBuiltBatchSkipsHeldPaths(t *testing.T) {
	withCache(t, builtBudget)
	s := NewStore()
	if err := s.putBuilt("held.pko", "gfx908", sizedSpec("held", 100)); err != nil {
		t.Fatal(err)
	}
	heldBytes, _ := s.Get("held.pko")
	b := s.Batch()
	if b.Need("held.pko") || !b.Need("new.pko") {
		t.Fatal("Need must be false only for the held path")
	}
	b.Add("held.pko", "gfx908", sizedSpec("other", 200))
	b.Add("new.pko", "gfx908", sizedSpec("first", 100))
	if b.Need("new.pko") {
		t.Fatal("Need must be false for a requested path")
	}
	b.Add("new.pko", "gfx908", sizedSpec("second", 100))
	if err := b.Put(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("held.pko"); &got[0] != &heldBytes[0] {
		t.Fatal("Put replaced an object the store held")
	}
	want, _ := Build("new.pko", "gfx908", sizedSpec("first", 100))
	if got, _ := s.Get("new.pko"); !bytes.Equal(got, want) || len(s.objects) != 2 {
		t.Fatal("Put did not store exactly the first request for the new path")
	}
}

// BenchmarkPutBuiltAll measures one set-up-shaped batch of misses: eight
// distinct objects of two 64 KB kernels each, the cache reset before every
// batch, built on GOMAXPROCS goroutines.
func BenchmarkPutBuiltAll(b *testing.B) {
	reqs := make([]BuildRequest, 8)
	for i := range reqs {
		reqs[i] = BuildRequest{Path: fmt.Sprintf("setup%d.pko", i), Arch: "gfx908", Kernels: benchSpecs(2, 64<<10)}
	}
	withCache(b, builtBudget)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		built = newBuildCache(builtBudget)
		s := NewStore()
		b.StartTimer()
		if err := s.PutBuiltAll(reqs); err != nil {
			b.Fatal(err)
		}
	}
}
