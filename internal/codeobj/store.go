package codeobj

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
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
// slice never changes, Parse decodes and checks it once and hands every
// later load of that slice the same *Object.
type Store struct {
	objects map[string]*stored
}

// stored holds one object's bytes and, once a load has parsed them, the
// parsed object. Stores that put the same built object share its holder,
// and so its one parse.
type stored struct {
	data []byte
	obj  atomic.Pointer[Object]
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

// PutBuilt stores the code object Build(path, arch, kernels) returns under
// path. It takes the object from the process-wide build cache when it can,
// so stores that put the same object share its bytes.
func (s *Store) PutBuilt(path, arch string, kernels []KernelSpec) error {
	h, err := built.get(path, arch, kernels)
	if err != nil {
		return err
	}
	s.objects[path] = h
	return nil
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
// the slice the store holds under path, the first successful parse is kept
// and every later call gets the same *Object, which callers must not
// modify. Any other slice (a fault injector's substitute, or bytes read
// before Put or a failure-injection hook replaced them) is parsed in full,
// and a failed parse is never kept. Safe for concurrent use with other
// readers of the store.
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

// Size returns the byte size of the object at path, or 0 if absent.
func (s *Store) Size(path string) int {
	if h, ok := s.objects[path]; ok {
		return len(h.data)
	}
	return 0
}

// Len returns the number of stored objects.
func (s *Store) Len() int { return len(s.objects) }

// TotalBytes returns the summed size of all stored objects.
func (s *Store) TotalBytes() int64 {
	var n int64
	for _, h := range s.objects {
		n += int64(len(h.data))
	}
	return n
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

// Corrupt replaces the stored object with a copy that has the byte at the
// given offset flipped — a failure-injection hook for loader tests.
func (s *Store) Corrupt(path string, offset int) error {
	h, ok := s.objects[path]
	if !ok {
		return fmt.Errorf("codeobj: object %q not found in store", path)
	}
	data := h.data
	if offset < 0 || offset >= len(data) {
		return fmt.Errorf("codeobj: offset %d out of range for %q (%d bytes)", offset, path, len(data))
	}
	data = slices.Clone(data)
	data[offset] ^= 0xff
	s.objects[path] = &stored{data: data}
	return nil
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

// Truncate shortens the stored object to n bytes — a failure-injection
// hook. It re-slices without copying, capping the capacity so that nothing
// appended to the result can reach the shared bytes past n.
func (s *Store) Truncate(path string, n int) error {
	h, ok := s.objects[path]
	if !ok {
		return fmt.Errorf("codeobj: object %q not found in store", path)
	}
	if n < 0 || n > len(h.data) {
		return fmt.Errorf("codeobj: truncate length %d out of range for %q", n, path)
	}
	s.objects[path] = &stored{data: h.data[:n:n]}
	return nil
}
