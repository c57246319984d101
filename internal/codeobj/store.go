package codeobj

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"sync/atomic"
)

// Store error classification: loaders retry transient errors and treat the
// rest (missing objects, parse failures) as permanent.
var (
	// ErrIO marks a transient read failure — the storage hiccup a loader
	// should retry rather than memoize.
	ErrIO = errors.New("codeobj: transient I/O error")
	// ErrNotFound marks an object absent from the store (permanent).
	ErrNotFound = errors.New("not found in store")
)

// IsTransient reports whether a store/load error is worth retrying.
func IsTransient(err error) bool { return errors.Is(err, ErrIO) }

// Store is the simulated on-disk registry of compiled code objects — the
// directory of shared libraries and binary blobs the primitive library loads
// from at runtime. It is a passive byte store; read latency and bandwidth
// are charged by the hip runtime when a load happens.
//
// Stored bytes are immutable: built objects are shared with other stores,
// so Get's result must not be modified, and the failure-injection hooks
// replace an object's slice rather than write into it. Because a stored
// slice never changes, it is decoded and checked once: a built object by
// the worker that builds it, any other by the first Parse of it. Every
// later load of that slice gets the same *Object.
type Store struct {
	objects map[string]*stored
}

// stored holds one object's bytes and, once they are parsed, the parsed
// object. The build cache's worker parses each object it builds and fills
// in obj with the bytes; a holder that Put or a failure-injection hook
// makes is parsed by the first load. Stores that put the same built object
// share its holder, and so its one parse. A holder the build cache hands
// out before its object is built counts one on filled until the bytes and
// their parse are in; a store takes a holder only once filled is done.
type stored struct {
	data   []byte
	obj    atomic.Pointer[Object]
	filled sync.WaitGroup
}

// owns reports whether data is exactly the slice the holder keeps: the same
// first byte and the same length.
func (h *stored) owns(data []byte) bool {
	return len(data) > 0 && len(data) == len(h.data) && &data[0] == &h.data[0]
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{objects: make(map[string]*stored)}
}

// Put registers object bytes under path, overwriting any previous content.
func (s *Store) Put(path string, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.objects[path] = &stored{data: cp}
}

// BuildRequest asks for the code object Build(Path, Arch, Kernels) returns,
// stored under Path.
type BuildRequest struct {
	Path    string
	Arch    string
	Kernels []KernelSpec
}

// PutBuiltAll stores the code object each request asks for under its path,
// in order. It takes objects from the process-wide build cache when it can,
// so stores that put the same object share its bytes, and builds the rest
// on up to GOMAXPROCS goroutines. The cache decides the batch request by
// request, exactly as one batch per request would, and the bytes are the
// same either way.
//
// At the first request Build would reject, PutBuiltAll returns Build's
// error with the requests before it stored, as one-request batches that
// stop at the first error would leave the store and the cache.
func (s *Store) PutBuiltAll(reqs []BuildRequest) error {
	var one [1]*stored // a batch of one allocates nothing on a hit
	hs := one[:]
	if len(reqs) != 1 {
		hs = make([]*stored, len(reqs))
	}
	n, err := built.getAll(reqs, hs)
	for i, h := range hs[:n] {
		s.objects[reqs[i].Path] = h
	}
	return err
}

// Batch collects the build requests of one preparation step for a single
// PutBuiltAll. It keeps the first request for each path and none for a
// path the store already holds, which is what putting each object when
// the store lacks its path would store.
type Batch struct {
	store *Store
	reqs  []BuildRequest
	paths map[string]bool
}

// Batch returns an empty batch of build requests for s.
func (s *Store) Batch() *Batch {
	return &Batch{store: s, paths: make(map[string]bool)}
}

// Need reports whether path is neither in the store nor requested yet.
func (b *Batch) Need(path string) bool {
	return !b.paths[path] && !b.store.Has(path)
}

// Add requests the object Build(path, arch, kernels) under path unless
// Need(path) is false, in which case it does nothing.
func (b *Batch) Add(path, arch string, kernels []KernelSpec) {
	if !b.Need(path) {
		return
	}
	b.paths[path] = true
	b.reqs = append(b.reqs, BuildRequest{Path: path, Arch: arch, Kernels: kernels})
}

// Put stores every requested object with one PutBuiltAll.
func (b *Batch) Put() error {
	return b.store.PutBuiltAll(b.reqs)
}

// Get returns the bytes stored under path. Injected read faults belong to a
// process, not the store: they apply in backend.Registry.ReadObject.
func (s *Store) Get(path string) ([]byte, error) {
	h, ok := s.objects[path]
	if !ok {
		return nil, fmt.Errorf("codeobj: object %q %w", path, ErrNotFound)
	}
	return h.data, nil
}

// Parse returns Parse(data) for bytes read from path. When data is exactly
// the slice the store holds under path, every call gets the same *Object,
// which callers must not modify: the parse the build made, for a built
// object, or else the first successful parse of a call. Any other slice
// (a fault injector's substitute, or bytes read before Put or a
// failure-injection hook replaced them) is parsed in full, and a failed
// parse is never kept. Safe for concurrent use with other readers of the
// store.
func (s *Store) Parse(path string, data []byte) (*Object, error) {
	h := s.objects[path]
	if h == nil || !h.owns(data) {
		return Parse(data)
	}
	if o := h.obj.Load(); o != nil {
		return o, nil
	}
	o, err := Parse(data)
	if err != nil {
		return nil, err
	}
	if !h.obj.CompareAndSwap(nil, o) {
		// A concurrent caller parsed the same slice first.
		o = h.obj.Load()
	}
	return o, nil
}

// Has reports whether path exists.
func (s *Store) Has(path string) bool {
	_, ok := s.objects[path]
	return ok
}

// Paths returns all stored paths in sorted order.
func (s *Store) Paths() []string {
	out := make([]string, 0, len(s.objects))
	for p := range s.objects {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// Fingerprint returns a checksum over every stored path and its bytes, in
// sorted path order. Two stores (or one store at two points in time) with
// byte-identical contents produce equal fingerprints — the multitenant
// experiment uses this to prove that shared and isolated serving read the
// same store and that neither mutated it.
func (s *Store) Fingerprint() uint32 {
	h := crc32.NewIEEE()
	var sep [1]byte
	for _, p := range s.Paths() {
		h.Write([]byte(p))
		h.Write(sep[:])
		h.Write(s.objects[p].data)
		h.Write(sep[:])
	}
	return h.Sum32()
}

// CorruptSealed replaces the stored object with a copy that has one byte
// flipped and the container CRC trailer re-sealed, so the damage is only
// detectable by the per-kernel payload checksum. Offsets inside the 4-byte
// trailer are rejected.
func (s *Store) CorruptSealed(path string, offset int) error {
	h, ok := s.objects[path]
	if !ok {
		return fmt.Errorf("codeobj: object %q not found in store", path)
	}
	data := h.data
	if len(data) < 4 {
		return fmt.Errorf("codeobj: object %q too short to re-seal", path)
	}
	if offset < 0 || offset >= len(data)-4 {
		return fmt.Errorf("codeobj: offset %d out of sealed range for %q (%d bytes)", offset, path, len(data))
	}
	data = slices.Clone(data)
	data[offset] ^= 0xff
	crc := crc32.ChecksumIEEE(data[:len(data)-4])
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc)
	s.objects[path] = &stored{data: data}
	return nil
}
