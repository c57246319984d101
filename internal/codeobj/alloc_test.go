package codeobj

import "testing"

// TestParseAllocsBounded pins the allocation budget of the zero-copy parse:
// a model-shaped object (two 256 KB kernels) must parse in well under the
// ~39 allocations the old copying parser paid — the payload and symbol
// bytes alias the input, so the only allocations left are the Object, its
// tables and the symbol-name strings.
func TestParseAllocsBounded(t *testing.T) {
	specs := []KernelSpec{
		{Name: "alloc_main", Pattern: "GEMM", CodeSize: 256 << 10},
		{Name: "alloc_helper", Pattern: "GEMM", CodeSize: 256 << 10},
	}
	data, err := Build("alloc-test", "gfx908", specs)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := Parse(data); err != nil {
			t.Error(err)
		}
	})
	// Measured 22 today; 30 leaves slack for runtime changes while still
	// failing loudly if payload copying creeps back in.
	if avg > 30 {
		t.Errorf("Parse allocates %.1f objects/op, want <= 30", avg)
	}
}

// TestBuildExactSize pins that Build sizes its buffer exactly: the store
// keeps the built slice, so spare capacity would stay resident behind every
// object. The mixes cover one and many kernels, with and without metadata,
// and payloads from one byte up.
func TestBuildExactSize(t *testing.T) {
	mixes := map[string][]KernelSpec{
		"one tiny kernel": {{Name: "k", CodeSize: 1}},
		"no meta":         {{Name: "a", Pattern: "GEMM", CodeSize: 33}, {Name: "b", Pattern: "Direct", CodeSize: 4096}},
		"meta":            benchSpecs(3, 777),
		"mixed meta": {
			{Name: "main", Pattern: "Winograd", CodeSize: 256 << 10, Meta: map[string]string{"dtype": "f16", "tile": "8x8", "": "empty key"}},
			{Name: "helper", CodeSize: 31},
			{Name: "xform", Pattern: "Transform", CodeSize: 2048, Meta: map[string]string{"layout": ""}},
		},
		"many kernels": benchSpecs(64, 100),
	}
	for name, specs := range mixes {
		data, err := Build("obj-"+name, "gfx908", specs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) != cap(data) {
			t.Errorf("%s: Build returned len %d, cap %d", name, len(data), cap(data))
		}
		if _, err := Parse(data); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
