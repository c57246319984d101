package codeobj

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// refJumpTab[j][v] is the state eight xorshift steps on from v<<(8*j): the
// jump table of the one-lane generator appendPayloadOneLane.
var refJumpTab = func() *[8][256]uint64 {
	t := new([8][256]uint64)
	for j := range 8 {
		for v := range 256 {
			s := uint64(v) << (8 * j)
			for range 8 {
				s = xorshift(s)
			}
			t[j][v] = s
		}
	}
	return t
}()

// appendPayloadOneLane is the one-lane generator Build used before the
// four-lane payloadGen: one 8-byte word per step, each step waiting on the
// previous one's jump.
func appendPayloadOneLane(b []byte, name string, size int) ([]byte, byte) {
	h := fnv.New64a()
	h.Write([]byte(name))
	s := h.Sum64()
	b = slices.Grow(b, size)
	p := b[len(b) : len(b)+size]
	var acc uint64
	for ; len(p) >= 8; p = p[8:] {
		w := applyTab(wordTab, s)
		s = applyTab(refJumpTab, s)
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

// buildReference is Build as it was before the payload and the CRC moved
// into one pass: the one-lane generator, then one CRC over the whole
// buffer. Build must return the same bytes and errors.
func buildReference(name, arch string, kernels []KernelSpec) ([]byte, error) {
	size, err := layout(name, arch, kernels)
	if err != nil {
		return nil, err
	}
	buf := append(make([]byte, 0, size), Magic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = appendString(buf, name)
	buf = appendString(buf, arch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(kernels)))
	var keys []string
	for _, k := range kernels {
		buf, keys = appendKernelHeader(buf, keys, k)
		var ck byte
		buf, ck = appendPayloadOneLane(buf, k.Name, k.CodeSize)
		buf = append(buf, ck)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// boundarySizes returns payload sizes that cross payloadGen's 32-byte lane
// step and Build's CRC blocks: 1 to 70, one either side of a block, two
// blocks and a tail, and a 650 KB main kernel.
func boundarySizes() []int {
	var sizes []int
	for n := 1; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	return append(sizes, crcBlock-1, crcBlock, crcBlock+1, 2*crcBlock+5, 650<<10)
}

// checkAgainstReference fails unless Build and buildReference agree on the
// request, and Parse accepts what Build returns.
func checkAgainstReference(t *testing.T, name, arch string, kernels []KernelSpec) {
	t.Helper()
	want, wantErr := buildReference(name, arch, kernels)
	got, err := Build(name, arch, kernels)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("Build err = %v, reference err = %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("Build differs from the reference at byte %d (%d bytes, reference %d)", i, len(got), len(want))
	}
	o, err := Parse(got)
	if err != nil {
		t.Fatalf("Parse(Build(...)): %v", err)
	}
	if o.Name != name || o.Arch != arch || o.NumSymbols() != len(kernels) {
		t.Fatalf("parsed %q/%q with %d kernels, built %q/%q with %d", o.Name, o.Arch, o.NumSymbols(), name, arch, len(kernels))
	}
}

// TestBuildMatchesReference checks Build byte for byte against the
// reference on one-kernel objects of every boundary size and on objects
// that mix them, so CRC blocks start at every kind of offset.
func TestBuildMatchesReference(t *testing.T) {
	sizes := boundarySizes()
	for _, n := range sizes {
		checkAgainstReference(t, "one.pko", "gfx908", []KernelSpec{{Name: fmt.Sprintf("k%d", n), Pattern: "GEMM", CodeSize: n}})
	}
	var mixed []KernelSpec
	for i, n := range sizes {
		k := KernelSpec{Name: fmt.Sprintf("mixed_%d", i), Pattern: "Winograd", CodeSize: n}
		if i%3 == 0 {
			k.Meta = map[string]string{"dtype": "f32", "tile": strings.Repeat("8", i%7)}
		}
		mixed = append(mixed, k)
	}
	checkAgainstReference(t, "mixed.pko", "gfx90a", mixed)
	slices.Reverse(mixed)
	checkAgainstReference(t, "reversed.pko", "gfx90a", mixed)
	checkAgainstReference(t, "model.pko", "gfx908", benchSpecs(2, 256<<10))
}

// FuzzBuild checks Build against the reference, byte for byte, on requests
// of one to four kernels, and that Parse accepts every object Build
// returns. rep repeats the meta value, so requests can reach the string
// length limit.
func FuzzBuild(f *testing.F) {
	f.Add("f.pko", "gfx908", "k", "GEMM", "dtype", "f32", uint8(1), uint8(0), uint32(64))
	f.Add("f.pko", "gfx908", "k", "", "", "", uint8(3), uint8(0), uint32(crcBlock+1))
	f.Add("", "", "kernel_name", "Winograd", "tile", "8x8", uint8(2), uint8(255), uint32(2*crcBlock+5))
	f.Add("f.pko", "gfx908", "k", "GEMM", "", "", uint8(0), uint8(0), uint32(0))
	f.Fuzz(func(t *testing.T, name, arch, kname, pattern, key, val string, nk, rep uint8, size uint32) {
		kernels := make([]KernelSpec, int(nk)%4+1)
		for i := range kernels {
			kernels[i] = KernelSpec{
				Name:     fmt.Sprintf("%s%d", kname, i),
				Pattern:  pattern,
				CodeSize: int(size>>(4*i)) % (3 * crcBlock),
			}
			if key != "" || val != "" {
				kernels[i].Meta = map[string]string{key: strings.Repeat(val, int(rep)+1)}
			}
		}
		checkAgainstReference(t, name, arch, kernels)
	})
}

// TestBuildStringLimits checks that Build refuses every string Parse would
// reject for its length, and more meta pairs than Parse accepts, and that at
// exactly each limit it builds an object Parse accepts. The build cache
// refuses the same requests.
func TestBuildStringLimits(t *testing.T) {
	manyMeta := func(n int) map[string]string {
		m := make(map[string]string, n)
		for i := range n {
			m[strconv.Itoa(i)] = ""
		}
		return m
	}
	long := func(n int) string { return strings.Repeat("x", n) }
	fields := []struct {
		name string
		req  func(n int) BuildRequest
	}{
		{"object name", func(n int) BuildRequest {
			return BuildRequest{Path: long(n), Arch: "gfx908", Kernels: []KernelSpec{{Name: "k", CodeSize: 16}}}
		}},
		{"arch", func(n int) BuildRequest {
			return BuildRequest{Path: "o", Arch: long(n), Kernels: []KernelSpec{{Name: "k", CodeSize: 16}}}
		}},
		{"kernel name", func(n int) BuildRequest {
			return BuildRequest{Path: "o", Arch: "gfx908", Kernels: []KernelSpec{{Name: "k", CodeSize: 16}, {Name: long(n), CodeSize: 16}}}
		}},
		{"pattern", func(n int) BuildRequest {
			return BuildRequest{Path: "o", Arch: "gfx908", Kernels: []KernelSpec{{Name: "k", Pattern: long(n), CodeSize: 16}}}
		}},
		{"meta key", func(n int) BuildRequest {
			return BuildRequest{Path: "o", Arch: "gfx908", Kernels: []KernelSpec{{Name: "k", CodeSize: 16, Meta: map[string]string{long(n): "v"}}}}
		}},
		{"meta value", func(n int) BuildRequest {
			return BuildRequest{Path: "o", Arch: "gfx908", Kernels: []KernelSpec{{Name: "k", CodeSize: 16, Meta: map[string]string{"dtype": long(n)}}}}
		}},
		{"meta pairs", func(n int) BuildRequest {
			return BuildRequest{Path: "o", Arch: "gfx908", Kernels: []KernelSpec{{Name: "k", CodeSize: 16, Meta: manyMeta(n)}}}
		}},
	}
	for _, f := range fields {
		t.Run(f.name, func(t *testing.T) {
			withCache(t, builtBudget)
			at := f.req(maxStringLen)
			data, err := Build(at.Path, at.Arch, at.Kernels)
			if err != nil {
				t.Fatalf("at the limit: Build: %v", err)
			}
			if _, err := Parse(data); err != nil {
				t.Fatalf("at the limit: Parse: %v", err)
			}
			over := f.req(maxStringLen + 1)
			if _, err := Build(over.Path, over.Arch, over.Kernels); err == nil {
				t.Fatal("one over the limit: Build succeeded")
			}
			if err := NewStore().PutBuiltAll([]BuildRequest{over}); err == nil {
				t.Fatal("one over the limit: PutBuiltAll succeeded")
			}
		})
	}
}
