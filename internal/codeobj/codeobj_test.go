package codeobj

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func sampleSpecs() []KernelSpec {
	return []KernelSpec{
		{Name: "ConvWinogradNaiveFwd_main", Pattern: "Winograd", CodeSize: 1024,
			Meta: map[string]string{"dtype": "f32", "arch": "gfx908"}},
		{Name: "ConvWinogradNaiveFwd_xform_in", Pattern: "Winograd", CodeSize: 300},
		{Name: "ConvWinogradNaiveFwd_xform_out", Pattern: "Winograd", CodeSize: 280},
	}
}

// putBuilt stores Build(path, arch, kernels) under path: PutBuiltAll with
// a batch of one.
func (s *Store) putBuilt(path, arch string, kernels []KernelSpec) error {
	return s.PutBuiltAll([]BuildRequest{{Path: path, Arch: arch, Kernels: kernels}})
}

// corrupt stores a copy of the object at path with the byte at offset
// flipped, and truncate its first n bytes: the damage a bad disk does.
func (s *Store) corrupt(path string, offset int) error {
	data, err := s.Get(path)
	if err != nil {
		return err
	}
	data = slices.Clone(data)
	data[offset] ^= 0xff
	s.Put(path, data)
	return nil
}

func (s *Store) truncate(path string, n int) error {
	data, err := s.Get(path)
	if err != nil {
		return err
	}
	s.Put(path, data[:n])
	return nil
}

func TestBuildParseRoundTrip(t *testing.T) {
	data, err := Build("winograd_naive.pko", "gfx908", sampleSpecs())
	if err != nil {
		t.Fatal(err)
	}
	o, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if o.Name != "winograd_naive.pko" || o.Arch != "gfx908" {
		t.Fatalf("name/arch = %q/%q", o.Name, o.Arch)
	}
	if o.NumSymbols() != 3 {
		t.Fatalf("NumSymbols = %d", o.NumSymbols())
	}
	k, ok := o.Symbol("ConvWinogradNaiveFwd_main")
	if !ok {
		t.Fatal("main symbol missing")
	}
	if k.CodeSize != 1024 || k.Pattern != "Winograd" || k.Meta["dtype"] != "f32" {
		t.Fatalf("kernel = %+v", k)
	}
	if _, ok := o.Symbol("nonexistent"); ok {
		t.Fatal("found nonexistent symbol")
	}
	if o.Size() != len(data) {
		t.Fatalf("Size = %d, want %d", o.Size(), len(data))
	}
	var code int
	for _, k := range o.Kernels {
		code += k.CodeSize
	}
	if code != 1024+300+280 {
		t.Fatalf("summed CodeSize = %d", code)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build("x.pko", "gfx908", sampleSpecs())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("x.pko", "gfx908", sampleSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("two builds of the same spec differ")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build("e.pko", "gfx908", nil); err == nil {
		t.Fatal("empty object should fail")
	}
	if _, err := Build("e.pko", "gfx908", []KernelSpec{{Name: "", CodeSize: 4}}); err == nil {
		t.Fatal("empty kernel name should fail")
	}
	if _, err := Build("e.pko", "gfx908", []KernelSpec{{Name: "k", CodeSize: 0}}); err == nil {
		t.Fatal("zero code size should fail")
	}
	if _, err := Build("e.pko", "gfx908", []KernelSpec{
		{Name: "k", CodeSize: 4}, {Name: "k", CodeSize: 4},
	}); err == nil {
		t.Fatal("duplicate symbols should fail")
	}
}

func TestParseBadMagic(t *testing.T) {
	data, _ := Build("x.pko", "gfx908", sampleSpecs())
	data[0] = 'Q'
	if _, err := Parse(data); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestParseChecksumMismatch(t *testing.T) {
	data, _ := Build("x.pko", "gfx908", sampleSpecs())
	data[len(data)/2] ^= 0xff
	if _, err := Parse(data); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestParseTruncated(t *testing.T) {
	data, _ := Build("x.pko", "gfx908", sampleSpecs())
	for _, n := range []int{0, 3, len(data) / 2} {
		if _, err := Parse(data[:n]); err == nil {
			t.Fatalf("Parse of %d-byte prefix should fail", n)
		}
	}
}

func TestParseVersionMismatch(t *testing.T) {
	data, _ := Build("x.pko", "gfx908", sampleSpecs())
	// Version field is right after magic; bump it and fix the CRC by
	// rebuilding the trailer.
	data[4] = 99
	// CRC now mismatches, which is also an acceptable error; force the CRC
	// to match so we exercise the version check.
	body := data[:len(data)-4]
	sum := crc32Checksum(body)
	data[len(data)-4] = byte(sum)
	data[len(data)-3] = byte(sum >> 8)
	data[len(data)-2] = byte(sum >> 16)
	data[len(data)-1] = byte(sum >> 24)
	if _, err := Parse(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5) + 1
		specs := make([]KernelSpec, n)
		for i := range specs {
			specs[i] = KernelSpec{
				Name:     randName(rng, i),
				Pattern:  []string{"Winograd", "GEMM", "DirectConv", "ImplicitGEMM"}[rng.Intn(4)],
				CodeSize: rng.Intn(4096) + 1,
			}
			if rng.Intn(2) == 0 {
				specs[i].Meta = map[string]string{"dtype": "f16", "tile": "64x64"}
			}
		}
		data, err := Build("obj.pko", "gfx908", specs)
		if err != nil {
			return false
		}
		o, err := Parse(data)
		if err != nil {
			return false
		}
		if o.NumSymbols() != n {
			return false
		}
		for i, s := range specs {
			k, ok := o.Symbol(s.Name)
			if !ok || k.CodeSize != s.CodeSize || k.Pattern != s.Pattern {
				return false
			}
			if len(s.Meta) != len(k.Meta) {
				return false
			}
			_ = i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-byte corruption is detected (CRC or structural error).
func TestCorruptionAlwaysDetectedProperty(t *testing.T) {
	data, err := Build("x.pko", "gfx908", sampleSpecs())
	if err != nil {
		t.Fatal(err)
	}
	f := func(pos uint16) bool {
		i := int(pos) % len(data)
		cp := make([]byte, len(data))
		copy(cp, data)
		cp[i] ^= 0x5a
		_, err := Parse(cp)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if s.Has("a.pko") || len(s.objects) != 0 {
		t.Fatal("new store should be empty")
	}
	if err := s.putBuilt("a.pko", "gfx908", sampleSpecs()); err != nil {
		t.Fatal(err)
	}
	if !s.Has("a.pko") || len(s.objects) != 1 {
		t.Fatal("stored object not visible")
	}
	data, err := s.Get("a.pko")
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := Build("a.pko", "gfx908", sampleSpecs()); !bytes.Equal(data, want) {
		t.Fatal("Get does not return the built object")
	}
	if _, err := s.Get("missing.pko"); err == nil {
		t.Fatal("Get of missing path should fail")
	}
	if got := s.Paths(); len(got) != 1 || got[0] != "a.pko" {
		t.Fatalf("Paths = %v", got)
	}
}

func TestStorePutIsolatesCaller(t *testing.T) {
	s := NewStore()
	buf := []byte{1, 2, 3}
	s.Put("b.pko", buf)
	buf[0] = 9
	got, _ := s.Get("b.pko")
	if got[0] != 1 {
		t.Fatal("Put must copy caller's bytes")
	}
}

// TestStoreFailureInjection damages a stored object the way the fault
// tests do, through Get and Put: the store serves the damaged bytes, and
// the bytes it held before stay pristine.
func TestStoreFailureInjection(t *testing.T) {
	s := NewStore()
	if err := s.putBuilt("a.pko", "gfx908", sampleSpecs()); err != nil {
		t.Fatal(err)
	}
	pristine, _ := s.Get("a.pko")
	if err := s.corrupt("a.pko", 10); err != nil {
		t.Fatal(err)
	}
	data, _ := s.Get("a.pko")
	if _, err := Parse(data); err == nil {
		t.Fatal("corrupted object should fail to parse")
	}
	if _, err := Parse(pristine); err != nil {
		t.Fatalf("damage reached the bytes stored before it: %v", err)
	}
	if err := s.truncate("a.pko", 8); err != nil {
		t.Fatal(err)
	}
	if data, _ := s.Get("a.pko"); len(data) != 8 {
		t.Fatalf("size after truncate = %d", len(data))
	}
}

func randName(rng *rand.Rand, i int) string {
	letters := "abcdefghijklmnopqrstuvwxyz"
	b := make([]byte, rng.Intn(12)+1)
	for j := range b {
		b[j] = letters[rng.Intn(len(letters))]
	}
	return string(b) + "_" + string(rune('0'+i))
}

func crc32Checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// Property: Parse never panics on arbitrary bytes — it must fail cleanly on
// anything that is not a well-formed object.
func TestParseArbitraryBytesNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		obj, err := Parse(data)
		// Either a clean error, or a genuinely valid object.
		return err != nil || obj != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parse never panics on a valid prefix with garbage appended.
func TestParseTrailingGarbageFails(t *testing.T) {
	data, err := Build("x.pko", "gfx908", sampleSpecs())
	if err != nil {
		t.Fatal(err)
	}
	f := func(tail []byte) bool {
		if len(tail) == 0 {
			return true
		}
		_, err := Parse(append(append([]byte{}, data...), tail...))
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintGolden pins the fingerprint algorithm to a known value.
// Cache images embed the fingerprint of the store they were built from and
// reject attachment when the live store drifts, so a silent change to the
// hash (input framing, separator, ordering) would invalidate every image
// already published. If this test fails, the format changed: bump the
// cache-image version rather than updating the constant casually.
func TestFingerprintGolden(t *testing.T) {
	s := NewStore()
	s.Put("b.pko", []byte("bravo"))
	s.Put("a.pko", []byte("alpha"))
	s.Put("c.pko", []byte{0x00, 0xff, 0x10})
	const golden = 0x16e37c0a
	if got := s.Fingerprint(); got != golden {
		t.Fatalf("Fingerprint = %#08x, want %#08x", got, golden)
	}
}

// TestFingerprintOrderIndependent checks insertion order does not leak into
// the fingerprint: equal contents hash equal, any content change does not.
func TestFingerprintOrderIndependent(t *testing.T) {
	paths := []string{"a.pko", "b.pko", "c.pko", "d.pko"}
	bodies := map[string][]byte{
		"a.pko": []byte("alpha"), "b.pko": []byte("bravo"),
		"c.pko": []byte("charlie"), "d.pko": []byte("delta"),
	}
	fwd := NewStore()
	for _, p := range paths {
		fwd.Put(p, bodies[p])
	}
	rev := NewStore()
	for i := len(paths) - 1; i >= 0; i-- {
		rev.Put(paths[i], bodies[paths[i]])
	}
	if fwd.Fingerprint() != rev.Fingerprint() {
		t.Fatalf("insertion order changed fingerprint: %#08x vs %#08x",
			fwd.Fingerprint(), rev.Fingerprint())
	}
	rev.Put("d.pko", []byte("delta!"))
	if fwd.Fingerprint() == rev.Fingerprint() {
		t.Fatal("content change did not change fingerprint")
	}
}
