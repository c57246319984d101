package codeobj

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"slices"
	"sync"
)

// builtBudget bounds the bytes the build cache keeps. The cache shares its
// slices with the stores that hold them, so this is what it can keep alive
// beyond live stores, not a second copy of every store.
const builtBudget = 8 << 20

// built is the process-wide cache behind Store.PutBuilt.
var built = newBuildCache(builtBudget)

// buildCache keeps built code objects under their full descriptor, so
// stores that put the same object share one immutable slice, and the one
// parse Store.Parse keeps of it, instead of each building it. Model set-ups
// on one device repeat many objects (the library's resident objects, BLAS
// cores), while most of the rest are built once.
//
// The policy is least-frequently-used with an admission test. Every request
// counts towards its descriptor, cached or not. A miss is admitted when it
// fits, or when every entry it must evict to fit has fewer requests; among
// equal counts the older entry goes first. An object larger than the budget
// is never kept. The policy reads no clock and no randomness, so the same
// request sequence gives the same hits and evictions on every run.
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
}

type cacheEntry struct {
	key   string
	obj   stored // shared with every store that puts the object
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

// get returns a holder of the object Build(path, arch, kernels) returns,
// shared with every other caller that gets it from the cache. Callers must
// not modify its bytes.
func (c *buildCache) get(path, arch string, kernels []KernelSpec) (*stored, error) {
	for _, k := range kernels {
		if !validCodeSize(k.CodeSize) {
			// The descriptor's 32-bit size field would wrap; Build rejects it.
			_, err := Build(path, arch, kernels)
			return nil, err
		}
	}
	c.mu.Lock()
	sum := c.describe(path, arch, kernels)
	c.counts[sum]++
	if e, ok := c.entries[string(c.key)]; ok {
		e.count++
		c.hits++
		c.mu.Unlock()
		return &e.obj, nil
	}
	c.mu.Unlock()

	data, err := Build(path, arch, kernels)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Other callers may have reused the scratch key while Build ran.
	c.describe(path, arch, kernels)
	if e, ok := c.entries[string(c.key)]; ok {
		// A concurrent caller built and admitted it first.
		return &e.obj, nil
	}
	return c.admit(sum, data), nil
}

// admit caches data, described by the scratch key, if it fits the budget
// after evicting only entries with fewer requests than it has, fewest first
// and, among equal counts, oldest first. It leaves the cache unchanged
// otherwise, so an object larger than the budget, which no eviction can
// make room for, is never kept. Either way it returns data's holder.
func (c *buildCache) admit(sum uint64, data []byte) *stored {
	count := c.counts[sum]
	if need := c.bytes + len(data) - c.budget; need > 0 {
		var victims []*cacheEntry
		freed := 0
		for _, e := range c.entries {
			if e.count < count {
				victims = append(victims, e)
				freed += len(e.obj.data)
			}
		}
		if freed < need {
			return &stored{data: data}
		}
		slices.SortFunc(victims, func(a, b *cacheEntry) int {
			return cmp.Or(cmp.Compare(a.count, b.count), cmp.Compare(a.seq, b.seq))
		})
		for freed = 0; freed < need; victims = victims[1:] {
			e := victims[0]
			delete(c.entries, e.key)
			c.bytes -= len(e.obj.data)
			freed += len(e.obj.data)
			c.evictions++
		}
	}
	c.seq++
	e := &cacheEntry{key: string(c.key), obj: stored{data: data}, count: count, seq: c.seq}
	c.entries[e.key] = e
	c.bytes += len(data)
	return &e.obj
}
