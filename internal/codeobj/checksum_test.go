package codeobj

import (
	"errors"
	"strings"
	"testing"
)

// buildSmall returns a sealed two-kernel object for checksum tests.
func buildSmall(t *testing.T) []byte {
	t.Helper()
	data, err := Build("obj", "gfx908", []KernelSpec{
		{Name: "k0", Pattern: "GEMM", CodeSize: 64},
		{Name: "k1", Pattern: "Winograd", CodeSize: 32},
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return data
}

func TestPerKernelChecksumRoundTrip(t *testing.T) {
	o, err := Parse(buildSmall(t))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if o.NumSymbols() != 2 {
		t.Fatalf("got %d symbols, want 2", o.NumSymbols())
	}
}

// TestPerKernelChecksumCatchesSealedCorruption flips payload bytes while
// re-sealing the container CRC: only the per-kernel checksum can notice.
func TestPerKernelChecksumCatchesSealedCorruption(t *testing.T) {
	data := buildSmall(t)
	st := NewStore()
	st.Put("obj.pko", data)

	// The container CRC would mask nothing after re-sealing, so a plain
	// Corrupt+Parse comparison establishes the baseline expectation first.
	if _, err := Parse(data); err != nil {
		t.Fatalf("pristine object must parse: %v", err)
	}

	hits := 0
	for off := 0; off < len(data)-4; off++ {
		if err := st.CorruptSealed("obj.pko", off); err != nil {
			t.Fatalf("CorruptSealed(%d): %v", off, err)
		}
		mutated, err := st.Get("obj.pko")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if _, perr := Parse(mutated); perr != nil {
			hits++
			// Payload corruption specifically must blame the kernel checksum.
			if strings.Contains(perr.Error(), "payload checksum") && !errors.Is(perr, ErrChecksum) {
				t.Fatalf("offset %d: payload checksum error not wrapping ErrChecksum: %v", off, perr)
			}
		}
		// Undo: flipping the same byte again restores the original object.
		if err := st.CorruptSealed("obj.pko", off); err != nil {
			t.Fatalf("CorruptSealed undo(%d): %v", off, err)
		}
	}
	if hits == 0 {
		t.Fatal("no sealed corruption was ever detected")
	}
}

func TestCorruptSealedRejectsTrailerOffsets(t *testing.T) {
	data := buildSmall(t)
	st := NewStore()
	st.Put("obj.pko", data)
	if err := st.CorruptSealed("obj.pko", len(data)-4); err == nil {
		t.Fatal("expected error for trailer offset")
	}
	if err := st.CorruptSealed("missing.pko", 0); err == nil {
		t.Fatal("expected error for missing object")
	}
}

func TestErrNotFoundTyped(t *testing.T) {
	st := NewStore()
	_, err := st.Get("nope.pko")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get error %v does not wrap ErrNotFound", err)
	}
	if IsTransient(err) {
		t.Fatal("not-found must not classify as transient")
	}
	if !IsTransient(ErrIO) {
		t.Fatal("ErrIO must classify as transient")
	}
}

// TestXORChecksumMatchesBytewise checks the word-at-a-time fold against a
// byte-at-a-time reference for every length up to 300 at every start
// alignment, so each path (32-byte lanes, 8-byte words, byte tail) and each
// hand-off between them is covered.
func TestXORChecksumMatchesBytewise(t *testing.T) {
	buf := make([]byte, 8+300)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range buf {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		buf[i] = byte(state)
	}
	for align := 0; align < 8; align++ {
		for n := 0; n <= 300; n++ {
			b := buf[align : align+n]
			var want byte
			for _, x := range b {
				want ^= x
			}
			if got := xorChecksum(b); got != want {
				t.Fatalf("align %d len %d: xorChecksum = %#x, want %#x", align, n, got, want)
			}
		}
	}
}
