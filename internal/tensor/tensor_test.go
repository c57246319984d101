package tensor

import "testing"

func TestShapeElemsAndBytes(t *testing.T) {
	s := Shape{N: 2, C: 3, H: 4, W: 5}
	if s.Elems() != 120 {
		t.Fatalf("Elems = %d", s.Elems())
	}
	if s.Bytes(F32) != 480 || s.Bytes(F16) != 240 || s.Bytes(I8) != 120 {
		t.Fatalf("Bytes wrong: %d %d %d", s.Bytes(F32), s.Bytes(F16), s.Bytes(I8))
	}
}

func TestShapeValid(t *testing.T) {
	if !(Shape{1, 1, 1, 1}).Valid() {
		t.Fatal("1x1x1x1 should be valid")
	}
	for _, s := range []Shape{{0, 1, 1, 1}, {1, -1, 1, 1}, {1, 1, 0, 1}, {1, 1, 1, 0}} {
		if s.Valid() {
			t.Fatalf("%v should be invalid", s)
		}
	}
}

func TestDTypeRoundTrip(t *testing.T) {
	for _, d := range []DType{F32, F16, I8} {
		got, err := ParseDType(d.String())
		if err != nil || got != d {
			t.Fatalf("ParseDType(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseDType("f64"); err == nil {
		t.Fatal("expected error for unknown dtype")
	}
}

func TestIndexingNCHWvsNHWC(t *testing.T) {
	s := Shape{N: 2, C: 3, H: 4, W: 5}
	a := New(s, NCHW)
	b := New(s, NHWC)
	v := float32(0)
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					a.Set(n, c, h, w, v)
					b.Set(n, c, h, w, v)
					v++
				}
			}
		}
	}
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					if a.At(n, c, h, w) != b.At(n, c, h, w) {
						t.Fatalf("logical mismatch at %d,%d,%d,%d", n, c, h, w)
					}
				}
			}
		}
	}
	// NCHW flat order: last index moves fastest along W.
	if a.Data[1] != a.At(0, 0, 0, 1) {
		t.Fatal("NCHW flat order wrong")
	}
	// NHWC flat order: last index moves fastest along C.
	if b.Data[1] != b.At(0, 1, 0, 0) {
		t.Fatal("NHWC flat order wrong")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := New(Shape{1, 1, 1, 2}, NCHW)
	a.Data[0] = 5
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 5 {
		t.Fatal("Clone shares storage")
	}
}

func TestMaxAbsDiffAcrossLayouts(t *testing.T) {
	s := Shape{1, 2, 2, 2}
	a, b := New(s, NCHW), New(s, NHWC)
	v := float32(0)
	for c := 0; c < s.C; c++ {
		for h := 0; h < s.H; h++ {
			for w := 0; w < s.W; w++ {
				a.Set(0, c, h, w, v)
				b.Set(0, c, h, w, v)
				v++
			}
		}
	}
	if d := MaxAbsDiff(a, b); d != 0 {
		t.Fatalf("diff across layouts = %v, want 0", d)
	}
	b.Set(0, 1, 1, 1, b.At(0, 1, 1, 1)+2.5)
	if d := MaxAbsDiff(a, b); d != 2.5 {
		t.Fatalf("diff = %v, want 2.5", d)
	}
}

func TestNewPanicsOnInvalidShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Shape{0, 1, 1, 1}, NCHW)
}
