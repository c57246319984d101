// Package codeobj implements PKO, the code-object container format of the
// simulated GPU stack — the stand-in for the ELF .hsaco/.cubin files whose
// loading dominates DNN cold start (paper Fig 1b). A PKO file carries one or
// more compiled kernels: a symbol table plus per-kernel pseudo-ISA payload.
//
// The loader really parses bytes (magic, header, symbols, CRC), so failure
// injection (truncation, corruption, missing symbols) exercises real code
// paths; the *time* a load takes is charged separately by the hip runtime
// from the sizes this package reports. Stored bytes never change, so each
// distinct stored slice is parsed and checked once (Store.Parse);
// corrupted, truncated or fault-substituted reads are parsed in full.
//
// Paper anchor: Fig 1b code-object loading; PKO is the stand-in for the ELF .hsaco/.cubin containers.
package codeobj

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"slices"
)

// Format constants.
const (
	Magic = "PKO1"
	// Version 2 added the per-kernel payload checksum byte that follows each
	// payload, letting the loader localize corruption to a kernel even when
	// the container CRC has been re-sealed.
	Version = 2
	// maxStringLen bounds length-prefixed strings to catch corrupt headers
	// before huge allocations.
	maxStringLen = 1 << 16
	// maxKernels bounds the kernel count for the same reason.
	maxKernels = 1 << 12
)

// ErrCorrupt is the umbrella sentinel for structural decode failures: bad
// magic, truncation and checksum mismatches all unwrap to it, so callers
// that only care about "this container is damaged" can match one error.
// ErrVersion deliberately does not unwrap to it — a well-formed object from
// a newer toolchain is not damage.
var ErrCorrupt = errors.New("codeobj: corrupt object")

// Errors returned by Parse. errors.Is(err, ErrCorrupt) matches the first,
// third and fourth.
var (
	ErrBadMagic  error = &corruptError{"codeobj: bad magic"}
	ErrVersion         = errors.New("codeobj: unsupported version")
	ErrTruncated error = &corruptError{"codeobj: truncated object"}
	ErrChecksum  error = &corruptError{"codeobj: checksum mismatch"}
)

// corruptError keeps the legacy sentinel texts while chaining every
// structural failure to ErrCorrupt.
type corruptError struct{ msg string }

func (e *corruptError) Error() string { return e.msg }
func (e *corruptError) Unwrap() error { return ErrCorrupt }

// KernelSpec describes one kernel to embed when building an object.
type KernelSpec struct {
	Name     string            // global symbol name
	Pattern  string            // solution pattern tag (Winograd, GEMM, ...)
	CodeSize int               // pseudo-ISA payload size in bytes
	Meta     map[string]string // free-form attributes (dtype, tile, ...)
}

// Kernel is a parsed kernel entry.
type Kernel struct {
	Name     string
	Pattern  string
	CodeSize int
	Meta     map[string]string
}

// Object is a parsed code object. Store.Parse hands one Object to every
// load of the same stored bytes, so an Object is shared and immutable:
// callers must not modify it, its Kernels or any Kernel's Meta.
type Object struct {
	Name    string
	Arch    string
	Kernels []Kernel
	symbols map[string]int // name -> index into Kernels
	size    int            // full container size in bytes
}

// Symbol returns the kernel with the given global name: a pointer into the
// shared object, which callers must not modify.
func (o *Object) Symbol(name string) (*Kernel, bool) {
	i, ok := o.symbols[name]
	if !ok {
		return nil, false
	}
	return &o.Kernels[i], true
}

// NumSymbols returns the number of kernels in the object.
func (o *Object) NumSymbols() int { return len(o.Kernels) }

// Size returns the container size in bytes (header + payload + trailer).
func (o *Object) Size() int { return o.size }

// CodeSize returns the summed pseudo-ISA payload size.
func (o *Object) CodeSize() int64 {
	var n int64
	for _, k := range o.Kernels {
		n += int64(k.CodeSize)
	}
	return n
}

func appendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
}

// cursor walks a byte slice without copying: take aliases sections in place,
// so Parse allocates only for the strings and kernel entries it keeps. Every
// take validates the remaining length first — a truncated object yields
// ErrTruncated, never an out-of-range slice.
type cursor struct {
	data []byte
	off  int
}

func (c *cursor) rem() int { return len(c.data) - c.off }

// take returns the next n bytes, aliased into the underlying buffer.
func (c *cursor) take(n int) ([]byte, bool) {
	if n < 0 || c.rem() < n {
		return nil, false
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, true
}

func (c *cursor) u32() (uint32, bool) {
	b, ok := c.take(4)
	if !ok {
		return 0, false
	}
	return binary.LittleEndian.Uint32(b), true
}

// str decodes one length-prefixed string with a single allocation (the
// string copy itself — no intermediate byte slice).
func (c *cursor) str() (string, error) {
	n, ok := c.u32()
	if !ok {
		return "", ErrTruncated
	}
	if n > maxStringLen {
		return "", fmt.Errorf("codeobj: string length %d exceeds limit: %w", n, ErrTruncated)
	}
	b, ok := c.take(int(n))
	if !ok {
		return "", ErrTruncated
	}
	return string(b), nil
}

// xorChecksum folds the payload 32 bytes at a time into four independent
// lanes, then eight bytes at a time, then byte by byte; XOR is associative
// and commutative, so the result equals a byte-at-a-time walk.
func xorChecksum(b []byte) byte {
	var a0, a1, a2, a3 uint64
	for ; len(b) >= 32; b = b[32:] {
		a0 ^= binary.LittleEndian.Uint64(b)
		a1 ^= binary.LittleEndian.Uint64(b[8:])
		a2 ^= binary.LittleEndian.Uint64(b[16:])
		a3 ^= binary.LittleEndian.Uint64(b[24:])
	}
	acc := a0 ^ a1 ^ a2 ^ a3
	for len(b) >= 8 {
		acc ^= binary.LittleEndian.Uint64(b)
		b = b[8:]
	}
	ck := foldXOR(acc)
	for _, x := range b {
		ck ^= x
	}
	return ck
}

// foldXOR returns the XOR of the eight bytes of acc.
func foldXOR(acc uint64) byte {
	acc ^= acc >> 32
	acc ^= acc >> 16
	acc ^= acc >> 8
	return byte(acc)
}

// validCodeSize reports whether n is a payload size the format can carry:
// positive and within the 32-bit size field.
func validCodeSize(n int) bool { return n > 0 && uint64(n) <= math.MaxUint32 }

// Build serializes a code object. Payload bytes are generated
// deterministically from each kernel's name, so two builds of the same spec
// are byte-identical.
func Build(name, arch string, kernels []KernelSpec) ([]byte, error) {
	size, err := layout(name, arch, kernels)
	if err != nil {
		return nil, err
	}
	buf := append(make([]byte, 0, size), Magic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = appendString(buf, name)
	buf = appendString(buf, arch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(kernels)))
	var scratch [8]string
	keys := scratch[:0]
	for _, k := range kernels {
		buf, keys = appendKernelHeader(buf, keys, k)
		var ck byte
		buf, ck = appendPayload(buf, k.Name, k.CodeSize)
		buf = append(buf, ck)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// layout checks a build request the way Build does and returns the exact
// byte length of the object Build would return for it. Build sizes its
// buffer with it, since the store keeps the returned slice and any spare
// capacity would stay resident behind the object, and the build cache admits
// objects by it before building them.
func layout(name, arch string, kernels []KernelSpec) (int, error) {
	if len(kernels) == 0 {
		return 0, errors.New("codeobj: object must contain at least one kernel")
	}
	if len(kernels) > maxKernels {
		return 0, fmt.Errorf("codeobj: %d kernels exceeds limit %d", len(kernels), maxKernels)
	}
	seen := make(map[string]bool, len(kernels))
	size := len(Magic) + 2 + 4 + len(name) + 4 + len(arch) + 4 + 4
	for _, k := range kernels {
		if k.Name == "" {
			return 0, errors.New("codeobj: kernel with empty name")
		}
		if !validCodeSize(k.CodeSize) {
			return 0, fmt.Errorf("codeobj: kernel %q code size %d out of range", k.Name, k.CodeSize)
		}
		if seen[k.Name] {
			return 0, fmt.Errorf("codeobj: duplicate kernel symbol %q", k.Name)
		}
		seen[k.Name] = true
		size += 4 + len(k.Name) + 4 + len(k.Pattern) + 4 + 4 + k.CodeSize + 1
		for key, val := range k.Meta {
			size += 4 + len(key) + 4 + len(val)
		}
	}
	return size, nil
}

// appendKernelHeader appends k's symbol entry as Build writes it ahead of
// the payload: name, pattern, code size and the meta pairs in key order.
// keys is scratch space for the sort; the grown slice is returned for reuse.
func appendKernelHeader(buf []byte, keys []string, k KernelSpec) ([]byte, []string) {
	buf = appendString(buf, k.Name)
	buf = appendString(buf, k.Pattern)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(k.CodeSize))
	keys = keys[:0]
	for key := range k.Meta {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(keys)))
	for _, key := range keys {
		buf = appendString(buf, key)
		buf = appendString(buf, k.Meta[key])
	}
	return buf, keys
}

// xorshift advances the payload generator's xorshift64 state by one step.
func xorshift(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// The xorshift step is linear over GF(2), so from a state s both the next
// eight output bytes, packed little-endian, and the state eight steps on are
// XORs of one entry per byte of s: wordTab[j][v] and jumpTab[j][v] are what
// the state v<<(8*j) alone contributes. They sit behind pointers so the loop
// in appendPayload indexes them off a register.
var wordTab, jumpTab = new([8][256]uint64), new([8][256]uint64)

func init() {
	for j := range 8 {
		for v := range 256 {
			s := uint64(v) << (8 * j)
			var w uint64
			for k := range 8 {
				s = xorshift(s)
				w |= uint64(byte(s)) << (8 * k)
			}
			wordTab[j][v], jumpTab[j][v] = w, s
		}
	}
}

// appendPayload appends size bytes of deterministic pseudo-ISA derived from
// the kernel name, generated in place, and returns their XOR checksum byte.
// Byte i is the low byte of the xorshift64 state after i+1 steps from the
// name's FNV-1a hash; the tables produce eight of them per step.
func appendPayload(b []byte, name string, size int) ([]byte, byte) {
	h := fnv.New64a()
	h.Write([]byte(name))
	s := h.Sum64()
	b = slices.Grow(b, size)
	p := b[len(b) : len(b)+size]
	var acc uint64
	wt, jt := wordTab, jumpTab
	for ; len(p) >= 8; p = p[8:] {
		w, n := wt[0][byte(s)], jt[0][byte(s)]
		w, n = w^wt[1][byte(s>>8)], n^jt[1][byte(s>>8)]
		w, n = w^wt[2][byte(s>>16)], n^jt[2][byte(s>>16)]
		w, n = w^wt[3][byte(s>>24)], n^jt[3][byte(s>>24)]
		w, n = w^wt[4][byte(s>>32)], n^jt[4][byte(s>>32)]
		w, n = w^wt[5][byte(s>>40)], n^jt[5][byte(s>>40)]
		w, n = w^wt[6][byte(s>>48)], n^jt[6][byte(s>>48)]
		w, s = w^wt[7][byte(s>>56)], n^jt[7][byte(s>>56)]
		binary.LittleEndian.PutUint64(p, w)
		acc ^= w
	}
	ck := foldXOR(acc)
	for i := range p {
		s = xorshift(s)
		p[i] = byte(s)
		ck ^= p[i]
	}
	return b[:len(b)+size], ck
}

// Parse validates and decodes a serialized code object. It never copies
// section bytes: payloads are checksum-walked through aliased slices, so
// the only allocations are the Object itself, its kernel table and the
// strings it retains. Every section length is validated against the bytes
// remaining before any slice is taken, so a truncated or size-corrupted
// object fails with an error unwrapping to ErrCorrupt rather than slicing
// out of range.
func Parse(data []byte) (*Object, error) {
	if len(data) < len(Magic)+2+4 {
		return nil, ErrTruncated
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, ErrChecksum
	}
	c := &cursor{data: body, off: len(Magic)}
	ver, ok := c.take(2)
	if !ok {
		return nil, ErrTruncated
	}
	if binary.LittleEndian.Uint16(ver) != Version {
		return nil, ErrVersion
	}
	name, err := c.str()
	if err != nil {
		return nil, err
	}
	arch, err := c.str()
	if err != nil {
		return nil, err
	}
	nk, ok := c.u32()
	if !ok {
		return nil, ErrTruncated
	}
	if nk == 0 || nk > maxKernels {
		return nil, fmt.Errorf("codeobj: kernel count %d out of range: %w", nk, ErrTruncated)
	}
	// Each kernel entry occupies at least its fixed-width fields plus the
	// checksum byte; capping the table capacity by that floor keeps a corrupt
	// count field from driving a large allocation.
	maxFit := c.rem()/13 + 1
	tableCap := int(nk)
	if tableCap > maxFit {
		tableCap = maxFit
	}
	o := &Object{
		Name:    name,
		Arch:    arch,
		Kernels: make([]Kernel, 0, tableCap),
		symbols: make(map[string]int, tableCap),
		size:    len(data),
	}
	for i := 0; i < int(nk); i++ {
		var k Kernel
		if k.Name, err = c.str(); err != nil {
			return nil, err
		}
		if k.Pattern, err = c.str(); err != nil {
			return nil, err
		}
		size, ok := c.u32()
		if !ok {
			return nil, ErrTruncated
		}
		k.CodeSize = int(size)
		if k.CodeSize > c.rem() {
			// A corrupt size field must not alias past the buffer below.
			return nil, fmt.Errorf("codeobj: kernel %q code size %d exceeds remaining %d bytes: %w", k.Name, k.CodeSize, c.rem(), ErrTruncated)
		}
		nMeta, ok := c.u32()
		if !ok {
			return nil, ErrTruncated
		}
		if nMeta > 0 {
			if nMeta > maxStringLen {
				return nil, ErrTruncated
			}
			k.Meta = make(map[string]string, nMeta)
			for j := 0; j < int(nMeta); j++ {
				key, err := c.str()
				if err != nil {
					return nil, err
				}
				val, err := c.str()
				if err != nil {
					return nil, err
				}
				k.Meta[key] = val
			}
		}
		// "Relocate": walk the payload like a loader patching addresses,
		// verifying the per-kernel checksum byte stored after it. The slice
		// aliases the input; nothing is copied.
		payload, ok := c.take(k.CodeSize)
		if !ok {
			return nil, ErrTruncated
		}
		want, ok := c.take(1)
		if !ok {
			return nil, ErrTruncated
		}
		if xorChecksum(payload) != want[0] {
			return nil, fmt.Errorf("codeobj: kernel %q payload checksum mismatch: %w", k.Name, ErrChecksum)
		}
		if _, dup := o.symbols[k.Name]; dup {
			return nil, fmt.Errorf("codeobj: duplicate symbol %q in object %q: %w", k.Name, name, ErrCorrupt)
		}
		o.symbols[k.Name] = len(o.Kernels)
		o.Kernels = append(o.Kernels, k)
	}
	if c.rem() != 0 {
		return nil, fmt.Errorf("codeobj: %d trailing bytes: %w", c.rem(), ErrTruncated)
	}
	return o, nil
}
