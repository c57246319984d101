package codeobj

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"slices"
	"testing"
)

// payloadOracle is the original generator: one xorshift64 step per output
// byte, the low byte of each new state. It stays as the reference the
// four-lane appendPayload must reproduce byte for byte.
func payloadOracle(name string, size int) []byte {
	h := fnv.New64a()
	h.Write([]byte(name))
	state := h.Sum64()
	p := make([]byte, size)
	for i := range p {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		p[i] = byte(state)
	}
	return p
}

// appendPayload appends size bytes of the kernel name's payload, as Build
// generates them in one call to payloadGen.fill, and returns their XOR
// checksum byte.
func appendPayload(b []byte, name string, size int) ([]byte, byte) {
	b = slices.Grow(b, size)
	g := newPayloadGen(name)
	g.fill(b[len(b) : len(b)+size])
	return b[:len(b)+size], g.sum()
}

// TestPayloadMatchesOracle checks every size from 0 to 70 (each hand-off
// between the 32-byte four-lane loop and the scalar tail), sizes around
// Build's CRC block and a few object-sized payloads, for several names,
// against the serial oracle. It also checks the returned checksum byte
// against xorChecksum of the bytes written, and that bytes already in the
// slice are left alone.
func TestPayloadMatchesOracle(t *testing.T) {
	sizes := append([]int{0}, boundarySizes()...)
	sizes = append(sizes, 4099, 44<<10+3, 256<<10)
	names := []string{"", "k", "k0", "bench_kernel_7", "ConvWinograd3x3_f32_fwd", "gemm\x00tail"}
	prefix := []byte("hdr")
	for _, name := range names {
		for _, n := range sizes {
			want := payloadOracle(name, n)
			out, ck := appendPayload(append([]byte(nil), prefix...), name, n)
			if !bytes.Equal(out[:len(prefix)], prefix) {
				t.Fatalf("name %q size %d: prefix clobbered: %q", name, n, out[:len(prefix)])
			}
			got := out[len(prefix):]
			if !bytes.Equal(got, want) {
				i := 0
				for i < n && got[i] == want[i] {
					i++
				}
				t.Fatalf("name %q size %d: first mismatch at byte %d of %d", name, n, i, len(got))
			}
			if wantCk := xorChecksum(want); ck != wantCk {
				t.Fatalf("name %q size %d: checksum %#x, want %#x", name, n, ck, wantCk)
			}
		}
	}
}

// TestBuildGolden pins the container CRC and length of a multi-kernel
// object whose payload sizes straddle the 8-byte generator step (1, 7, 8, 9)
// plus one longer payload with a tail. A different CRC means the PKO bytes
// changed, which would move every store fingerprint.
//
// The pinned value is the trailer, the CRC-32 of everything before it. The
// CRC-32 of a whole sealed object cannot serve: appending a little-endian
// CRC-32 makes the CRC of the result the fixed residue 0x2144df1c, whatever
// the bytes before it.
func TestBuildGolden(t *testing.T) {
	data, err := Build("golden.pko", "gfx908", []KernelSpec{
		{Name: "k_one", Pattern: "Direct", CodeSize: 1},
		{Name: "k_seven", Pattern: "GEMM", CodeSize: 7, Meta: map[string]string{"dtype": "f16"}},
		{Name: "k_eight", Pattern: "Winograd", CodeSize: 8},
		{Name: "k_nine", Pattern: "FFT", CodeSize: 9, Meta: map[string]string{"tile": "8x8", "dtype": "f32"}},
		{Name: "k_main", Pattern: "ImplicitGEMM", CodeSize: 4099},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const golden, size = 0x49d4d5c1, 4358
	if got := crc32.ChecksumIEEE(data[:len(data)-4]); got != golden || len(data) != size {
		t.Fatalf("Build CRC-32 = %#08x over %d bytes, want %#08x over %d", got, len(data), golden, size)
	}
	if _, err := Parse(data); err != nil {
		t.Fatalf("Parse: %v", err)
	}
}

// BenchmarkAppendPayload measures payload generation alone, at a helper
// kernel's size and at a model-sized main kernel's.
func BenchmarkAppendPayload(b *testing.B) {
	for _, size := range []int{2 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			buf := make([]byte, 0, size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = appendPayload(buf[:0], "bench_kernel_0", size)
			}
		})
	}
}
