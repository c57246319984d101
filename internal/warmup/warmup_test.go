package warmup

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/sim"
)

func sampleManifest() *Manifest {
	return &Manifest{
		Version: Version, Model: "alex", Batch: 4,
		Device: "MI100", Arch: "gfx908",
		Entries: []Entry{
			{Path: "a.pko", Checksum: 11, Bytes: 100, Kind: "solution"},
			{Path: "b.pko", Checksum: 22, Kind: "transform"},
		},
		Substitutions: []Substitution{
			{Layer: "conv1", Pattern: "ConvDirect", Selected: "a.pko", Chosen: "b.pko"},
		},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	data, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Model != m.Model || got.Batch != m.Batch || got.Device != m.Device || got.Arch != m.Arch {
		t.Fatalf("header mismatch: %+v vs %+v", got, m)
	}
	if len(got.Entries) != 2 || got.Entries[0] != m.Entries[0] || got.Entries[1] != m.Entries[1] {
		t.Fatalf("entries mismatch: %+v", got.Entries)
	}
	if len(got.Substitutions) != 1 || got.Substitutions[0] != m.Substitutions[0] {
		t.Fatalf("substitutions mismatch: %+v", got.Substitutions)
	}
	// Encoding is deterministic.
	again, err := got.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if string(again) != string(data) {
		t.Fatalf("encoding not stable:\n%s\nvs\n%s", data, again)
	}
}

func TestManifestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := WriteFile(path, sampleManifest()); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Model != "alex" || len(got.Entries) != 2 {
		t.Fatalf("unexpected manifest: %+v", got)
	}
}

// TestForwardCompatGolden decodes a manifest written by a hypothetical newer
// minor revision (same version, extra top-level and entry fields): the
// fields this version knows decode.
func TestForwardCompatGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "forward_compat.json"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	m, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode golden: %v", err)
	}
	want := &Manifest{
		Version: 1, Model: "res", Batch: 4, Device: "MI100", Arch: "gfx908",
		Entries: []Entry{
			{Path: "miopen/gfx908/conv_igemm.pko", Checksum: 305419896, Bytes: 4096, Kind: "solution"},
			{Path: "miopen/gfx908/winograd_3x3.pko", Checksum: 2271560481, Kind: "solution"},
		},
		Substitutions: []Substitution{{
			Layer: "conv2", Pattern: "ConvDirect",
			Selected: "miopen/gfx908/conv_direct.pko", Chosen: "miopen/gfx908/conv_igemm.pko",
		}},
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("known fields misparsed:\n got %+v\nwant %+v", m, want)
	}
}

func TestVersionBumpRejected(t *testing.T) {
	_, err := Decode([]byte(`{"version": 2, "entries": []}`))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("version error must not also be ErrCorrupt: %v", err)
	}
}

func TestCorruptManifestRejected(t *testing.T) {
	cases := []string{
		`{not json`,
		`[]`,
		`{"entries": []}`,                      // missing version
		`{"version": 0, "entries": []}`,        // invalid version
		`{"version": 1, "entries": [{}]}`,      // entry without path
		`{"version": 1, "entries": "nothing"}`, // wrong type
	}
	for _, c := range cases {
		if _, err := Decode([]byte(c)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Decode(%q): want ErrCorrupt, got %v", c, err)
		}
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	r.ObserveObject("solution", "a.pko")
	r.ObserveObject("transform", "x.pko")
	r.ObserveObject("solution", "a.pko") // dedup keeps first-use order
	r.ObserveObject("builtin", "")       // empty path ignored
	r.ObserveDecision("conv1", "ConvDirect", "a.pko", "a.pko", false)
	r.ObserveDecision("conv2", "ConvDirect", "b.pko", "a.pko", true)
	if got := r.Paths(); len(got) != 2 || got[0] != "a.pko" || got[1] != "x.pko" {
		t.Fatalf("Paths: %v", got)
	}

	store := codeobj.NewStore()
	aData := buildObject(t, "a")
	store.Put("a.pko", aData)
	// x.pko unreadable: left out of the manifest.
	man := r.Manifest(store, "alex", 1, device.MI100())
	if len(man.Entries) != 1 || man.Entries[0].Path != "a.pko" {
		t.Fatalf("Entries: %+v", man.Entries)
	}
	if man.Entries[0].Checksum != Checksum(aData) || man.Entries[0].Bytes != len(aData) {
		t.Fatalf("checksum/bytes wrong: %+v", man.Entries[0])
	}
	if len(man.Substitutions) != 1 || man.Substitutions[0].Layer != "conv2" {
		t.Fatalf("Substitutions: %+v", man.Substitutions)
	}
	if man.Model != "alex" || man.Device != "MI100" || man.Version != Version {
		t.Fatalf("header: %+v", man)
	}
}

func buildObject(t *testing.T, name string) []byte {
	t.Helper()
	data, err := codeobj.Build(name, "gfx908", []codeobj.KernelSpec{
		{Name: name + "_k0", Pattern: "GEMM", CodeSize: 256},
	})
	if err != nil {
		t.Fatalf("Build %s: %v", name, err)
	}
	return data
}

// TestPrefetcherReplay replays a manifest with one healthy, one stale and
// one missing entry: the healthy object must end up resident, the other two
// must be skipped and counted, and the run must not fail.
func TestPrefetcherReplay(t *testing.T) {
	env := sim.NewEnv()
	store := codeobj.NewStore()
	good := buildObject(t, "good")
	stale := buildObject(t, "stale")
	store.Put("good.pko", good)
	store.Put("stale.pko", stale)
	rt := backend.New(env, device.NewGPU(env, device.MI100()), device.DefaultHost(), store, backend.HIP)

	man := &Manifest{Version: Version, Entries: []Entry{
		{Path: "good.pko", Checksum: Checksum(good)},
		{Path: "stale.pko", Checksum: Checksum(stale) + 1}, // mismatch
		{Path: "gone.pko", Checksum: 7},                    // unreadable
	}}
	pf := Start(env, rt, man, nil)
	env.Spawn("waiter", func(p *sim.Proc) { pf.Wait(p) })
	env.Run()

	st := pf.Stats()
	if st.Entries != 3 || st.Loaded != 1 || st.Stale != 2 || st.Failed != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if !rt.Loaded("good.pko") {
		t.Fatal("good.pko not resident after replay")
	}
	if !pf.loaded["good.pko"] || pf.loaded["stale.pko"] {
		t.Fatalf("coverage wrong: %+v", pf)
	}
	// Replay detaches its view: nothing stays pinned on its account, so
	// prefetched-but-unused modules remain evictable under memory pressure.
	for _, ts := range rt.AllTenantStats() {
		if ts.Pinned != 0 {
			t.Fatalf("view %q left %d pins", ts.Tenant, ts.Pinned)
		}
	}

	got := pf.Account([]string{"good.pko", "other.pko"}, env.Now())
	if got.Hits != 1 || got.Misses != 1 || got.Wasted != 0 {
		t.Fatalf("accounting: %+v", got)
	}
}

// TestWriteFileAtomic pins the crash-safety contract: WriteFile lands via a
// same-directory temp file and rename, so path never holds a half-written
// manifest, and a truncated leftover (a simulated torn write) is rejected
// by ReadFile as corrupt rather than silently replayed.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profile.json")

	// Overwriting an existing manifest leaves no temp droppings behind.
	if err := WriteFile(path, sampleManifest()); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	m2 := sampleManifest()
	m2.Model = "res"
	if err := WriteFile(path, m2); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0].Name() != "profile.json" {
		t.Fatalf("directory not clean after write: %v", names)
	}
	got, err := ReadFile(path)
	if err != nil || got.Model != "res" {
		t.Fatalf("ReadFile after overwrite: %+v, %v", got, err)
	}

	// A torn write — the old non-atomic failure mode — must not decode.
	full, err := sampleManifest().Encode()
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(torn); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated manifest: err = %v, want ErrCorrupt", err)
	}
}
