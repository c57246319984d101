package codeobj

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// builtBudget bounds the bytes the build cache keeps. The cache shares its
// slices with the stores that hold them, so this is what it can keep alive
// beyond live stores, not a second copy of every store.
const builtBudget = 8 << 20

// built is the process-wide cache behind Store.PutBuiltAll.
var built = newBuildCache(builtBudget)

// buildCache keeps built code objects under their full descriptor, so
// stores that put the same object share one immutable slice, and the one
// parse of it the build made, instead of each building it. Model set-ups
// on one device repeat many objects (the library's resident objects, BLAS
// cores), while most of the rest are built once.
//
// The policy is least-frequently-used with an admission test. Every request
// counts towards its descriptor, cached or not. A miss is admitted when it
// fits, or when every entry it must evict to fit has fewer requests; among
// equal counts the older entry goes first. An object larger than the budget
// is never kept. The policy reads no clock and no randomness, so the same
// request sequence gives the same hits and evictions on every run, however
// it is split into batches. Admission needs only an object's length, so
// the cache decides a whole batch before building any of it; an entry is
// admitted before its bytes exist, and a hit on it waits for them.
type buildCache struct {
	budget int

	mu      sync.Mutex
	entries map[string]*cacheEntry // full descriptor -> object
	// counts holds requests per descriptor hash, evicted or not. A hash
	// collision can only change what is admitted, never what a hit returns.
	// It grows by one small entry per distinct object ever built.
	counts    map[uint64]int
	bytes     int
	seq       uint64
	hits      int
	evictions int
	// Scratch space for descriptors, reused under mu.
	key  []byte
	keys []string
	// observe, when set, runs under mu after each request's decision. Tests
	// use it to read the cache's state request by request.
	observe func()
}

type cacheEntry struct {
	key   string
	obj   stored // shared with every store that puts the object
	size  int    // len(obj.data), known before the object is built
	count int    // requests so far; counts of its hash unless a hash collides
	seq   uint64 // admission order
}

func newBuildCache(budget int) *buildCache {
	return &buildCache{
		budget:  budget,
		entries: make(map[string]*cacheEntry),
		counts:  make(map[uint64]int),
	}
}

// appendDescriptor appends everything Build encodes except the payloads,
// which are a function of each kernel's name and code size: two requests
// with equal descriptors build byte-identical objects.
func appendDescriptor(buf []byte, keys []string, path, arch string, kernels []KernelSpec) ([]byte, []string) {
	buf = appendString(buf, path)
	buf = appendString(buf, arch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(kernels)))
	for _, k := range kernels {
		buf, keys = appendKernelHeader(buf, keys, k)
	}
	return buf, keys
}

// describe writes the descriptor of the object Build(path, arch, kernels)
// returns into the scratch key and returns its hash. Callers hold mu.
func (c *buildCache) describe(path, arch string, kernels []KernelSpec) uint64 {
	c.key, c.keys = appendDescriptor(c.key[:0], c.keys, path, arch, kernels)
	h := fnv.New64a()
	h.Write(c.key)
	return h.Sum64()
}

// getAll sets hs[i] to a holder of the object Build(reqs[i]) returns,
// shared with every other caller that gets it from the cache; callers must
// not modify its bytes. It runs the policy over the requests in order, so
// the hits, admissions and evictions are the ones a call per request would
// make, then builds the misses on up to GOMAXPROCS goroutines and waits
// until every holder it hands out, including entries that other callers
// admitted and are still building, has its bytes.
//
// At the first request Build would reject, it stops there and returns how
// many requests came before it together with Build's error, leaving the
// cache as calls for just those requests, and that one, would leave it.
func (c *buildCache) getAll(reqs []BuildRequest, hs []*stored) (int, error) {
	n, misses, err := c.decide(reqs, hs)
	if len(misses) > 1 && runtime.GOMAXPROCS(0) > 1 {
		buildParallel(misses)
	} else {
		for i := range misses {
			misses[i].run()
		}
	}
	for _, h := range hs[:n] {
		h.filled.Wait()
	}
	return n, err
}

// buildParallel runs the jobs on min(GOMAXPROCS, len(jobs)) goroutines and
// returns once all are done.
func buildParallel(jobs []buildJob) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
				jobs[i].run()
			}
		}()
	}
	wg.Wait()
}

// decide runs the policy over reqs under mu, as getAll describes, and
// returns a job for each miss to be built.
func (c *buildCache) decide(reqs []BuildRequest, hs []*stored) (n int, misses []buildJob, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range reqs {
		for _, k := range r.Kernels {
			if !validCodeSize(k.CodeSize) {
				// The descriptor's 32-bit size field would wrap; Build
				// rejects it.
				_, err := layout(r.Path, r.Arch, r.Kernels)
				return i, misses, err
			}
		}
		sum := c.describe(r.Path, r.Arch, r.Kernels)
		c.counts[sum]++
		if e, ok := c.entries[string(c.key)]; ok {
			e.count++
			c.hits++
			hs[i] = &e.obj
		} else {
			size, err := layout(r.Path, r.Arch, r.Kernels)
			if err != nil {
				return i, misses, err
			}
			hs[i] = c.admit(sum, size)
			hs[i].filled.Add(1)
			misses = append(misses, buildJob{r, size, hs[i]})
		}
		if c.observe != nil {
			c.observe()
		}
	}
	return len(reqs), misses, nil
}

// buildJob is one miss getAll builds into its holder.
type buildJob struct {
	req  BuildRequest
	size int
	h    *stored
}

// run builds the job's object into its holder, parses it while its bytes
// are still in cache, keeps the parse as the holder's, and marks the holder
// filled, so the first load of the object finds it parsed. It calls Build
// and Parse itself, so CPU profiles attribute the work to them.
func (j *buildJob) run() {
	data, err := Build(j.req.Path, j.req.Arch, j.req.Kernels)
	if err != nil || len(data) != j.size {
		// decide checked the request and sized it with layout.
		panic(fmt.Sprintf("codeobj: build of checked request %q: %d bytes, want %d: %v", j.req.Path, len(data), j.size, err))
	}
	o, err := Parse(data)
	if err != nil {
		// layout rejects every request whose object Parse would.
		panic(fmt.Sprintf("codeobj: parse of built object %q: %v", j.req.Path, err))
	}
	j.h.data = data
	j.h.obj.Store(o)
	j.h.filled.Done()
}

// admit caches an object of size bytes, described by the scratch key, if it
// fits the budget after evicting only entries with fewer requests than it
// has, fewest first and, among equal counts, oldest first. It leaves the
// cache unchanged otherwise, so an object larger than the budget, which no
// eviction can make room for, is never kept. Either way it returns the
// object's holder, still to be filled.
func (c *buildCache) admit(sum uint64, size int) *stored {
	count := c.counts[sum]
	if need := c.bytes + size - c.budget; need > 0 {
		var victims []*cacheEntry
		freed := 0
		for _, e := range c.entries {
			if e.count < count {
				victims = append(victims, e)
				freed += e.size
			}
		}
		if freed < need {
			return &stored{}
		}
		slices.SortFunc(victims, func(a, b *cacheEntry) int {
			return cmp.Or(cmp.Compare(a.count, b.count), cmp.Compare(a.seq, b.seq))
		})
		for freed = 0; freed < need; victims = victims[1:] {
			e := victims[0]
			delete(c.entries, e.key)
			c.bytes -= e.size
			freed += e.size
			c.evictions++
		}
	}
	c.seq++
	e := &cacheEntry{key: string(c.key), size: size, count: count, seq: c.seq}
	c.entries[e.key] = e
	c.bytes += size
	return &e.obj
}
