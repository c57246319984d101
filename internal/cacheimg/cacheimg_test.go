package cacheimg

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/warmup"
)

// fixture builds a code-object store with three objects and a recorded-style
// manifest referencing two of them.
func fixture(t *testing.T) (*codeobj.Store, *warmup.Manifest) {
	t.Helper()
	store := codeobj.NewStore()
	store.Put("conv/a.pko", []byte("kernel-a-bytes"))
	store.Put("conv/b.pko", []byte("kernel-b-bytes-longer"))
	store.Put("gemm/c.pko", []byte("kernel-c"))
	man := &warmup.Manifest{
		Version: warmup.Version, Model: "alex", Batch: 4,
		Device: "MI100", Arch: "gfx908",
	}
	for _, p := range []string{"conv/a.pko", "conv/b.pko"} {
		data, err := store.Get(p)
		if err != nil {
			t.Fatalf("fixture get %s: %v", p, err)
		}
		man.Entries = append(man.Entries, warmup.Entry{
			Path: p, Checksum: warmup.Checksum(data), Bytes: len(data), Kind: "solution",
		})
	}
	return store, man
}

func mi100() device.Profile { return device.MI100() }

func buildImage(t *testing.T) (*Image, *codeobj.Store) {
	t.Helper()
	store, man := fixture(t)
	img, err := Build(man, store)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return img, store
}

func TestBuildRoundTrip(t *testing.T) {
	img, store := buildImage(t)
	if len(img.Objects) != 2 {
		t.Fatalf("expected 2 objects, got %d", len(img.Objects))
	}
	if img.StoreFingerprint != store.Fingerprint() {
		t.Fatalf("fingerprint not sealed")
	}
	raw, err := img.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Model != "alex" || got.Device != "MI100" || got.Arch != "gfx908" || got.Batch != 4 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.StoreFingerprint != img.StoreFingerprint {
		t.Fatalf("fingerprint mismatch")
	}
	if len(got.Manifest.Entries) != 2 || got.Manifest.Entries[0].Path != "conv/a.pko" {
		t.Fatalf("manifest mismatch: %+v", got.Manifest)
	}
	if len(got.Objects) != 2 || string(got.Objects[0].Data) != "kernel-a-bytes" {
		t.Fatalf("objects mismatch: %+v", got.Objects)
	}
	// Canonical encoding: same image, same bytes, same content address.
	again, err := got.Encode()
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if ID(raw) != ID(again) {
		t.Fatalf("content address not stable: %s vs %s", ID(raw), ID(again))
	}
}

func TestBuildRejectsDriftedStore(t *testing.T) {
	store, man := fixture(t)
	store.Put("conv/a.pko", []byte("mutated"))
	if _, err := Build(man, store); err == nil {
		t.Fatal("Build accepted an object that changed since the profile was recorded")
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	img, _ := buildImage(t)
	raw, err := img.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"flipped body byte", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }},
		{"flipped trailer", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
	}
	for _, tc := range cases {
		cp := make([]byte, len(raw))
		copy(cp, raw)
		if _, err := Decode(tc.mut(cp)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", tc.name, err)
		}
	}
}

func TestDecodeRejectsNewerVersion(t *testing.T) {
	img, _ := buildImage(t)
	img.Version = Version + 1
	raw, err := img.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := Decode(raw); !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestMatchesAndFingerprint(t *testing.T) {
	img, store := buildImage(t)
	if err := img.Matches(mi100()); err != nil {
		t.Fatalf("Matches(MI100): %v", err)
	}
	if err := img.Matches(device.A100()); !errors.Is(err, ErrProfileMismatch) {
		t.Fatalf("want ErrProfileMismatch, got %v", err)
	}
	if err := img.CheckFingerprint(store.Fingerprint()); err != nil {
		t.Fatalf("CheckFingerprint: %v", err)
	}
	if err := img.CheckFingerprint(store.Fingerprint() + 1); !errors.Is(err, ErrStale) {
		t.Fatalf("want ErrStale, got %v", err)
	}
}

func TestStorePublishAttach(t *testing.T) {
	img, costore := buildImage(t)
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	id, err := s.Publish(img)
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	infos, err := s.List()
	if err != nil || len(infos) != 1 || infos[0].ID != id {
		t.Fatalf("List: %v %+v", err, infos)
	}
	att, err := s.Attach("alex", mi100(), costore.Fingerprint())
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if att.ID != id || len(att.Image.Manifest.Entries) != 2 {
		t.Fatalf("unexpected attach: %+v", att)
	}
	if got := s.Stats(); got.AttachOK != 1 || got.Published != 1 {
		t.Fatalf("stats: %+v", got)
	}
}

func TestAttachLadder(t *testing.T) {
	img, costore := buildImage(t)
	fp := costore.Fingerprint()

	t.Run("no image", func(t *testing.T) {
		s, _ := Open(t.TempDir())
		if _, err := s.Attach("alex", mi100(), fp); !errors.Is(err, ErrNoImage) {
			t.Fatalf("want ErrNoImage, got %v", err)
		}
		if s.Stats().NoImage != 1 {
			t.Fatalf("stats: %+v", s.Stats())
		}
	})

	t.Run("other model skipped", func(t *testing.T) {
		s, _ := Open(t.TempDir())
		if _, err := s.Publish(img); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Attach("res", mi100(), fp); !errors.Is(err, ErrNoImage) {
			t.Fatalf("want ErrNoImage, got %v", err)
		}
	})

	t.Run("profile mismatch rejected", func(t *testing.T) {
		s, _ := Open(t.TempDir())
		if _, err := s.Publish(img); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Attach("alex", device.A100(), fp); !errors.Is(err, ErrProfileMismatch) {
			t.Fatalf("want ErrProfileMismatch, got %v", err)
		}
		if s.Stats().RejectedProfile != 1 {
			t.Fatalf("stats: %+v", s.Stats())
		}
	})

	t.Run("stale fingerprint", func(t *testing.T) {
		s, _ := Open(t.TempDir())
		if _, err := s.Publish(img); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Attach("alex", mi100(), fp+1); !errors.Is(err, ErrStale) {
			t.Fatalf("want ErrStale, got %v", err)
		}
		if s.Stats().Stale != 1 {
			t.Fatalf("stats: %+v", s.Stats())
		}
	})

	t.Run("corrupt bytes quarantined", func(t *testing.T) {
		s, _ := Open(t.TempDir())
		raw, _ := img.Encode()
		id := ID(raw)
		raw[len(raw)/2] ^= 0x01
		if err := s.PublishBytes(id, raw); err != nil {
			t.Fatalf("PublishBytes: %v", err)
		}
		if _, err := s.Attach("alex", mi100(), fp); !errors.Is(err, ErrNoImage) {
			t.Fatalf("want ErrNoImage after quarantine, got %v", err)
		}
		if s.Stats().Quarantined != 1 {
			t.Fatalf("stats: %+v", s.Stats())
		}
		// The damaged image was renamed aside: a second attach never sees it.
		if _, err := s.Attach("alex", mi100(), fp); !errors.Is(err, ErrNoImage) {
			t.Fatalf("second attach: %v", err)
		}
		if s.Stats().Quarantined != 1 {
			t.Fatalf("quarantined twice: %+v", s.Stats())
		}
		ents, _ := os.ReadDir(s.dir)
		var q int
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), quarantineExt) {
				q++
			}
		}
		if q != 1 {
			t.Fatalf("expected 1 quarantined file, found %d", q)
		}
	})

	t.Run("misnamed image quarantined", func(t *testing.T) {
		s, _ := Open(t.TempDir())
		raw, _ := img.Encode()
		if err := s.PublishBytes("0123456789abcdef", raw); err != nil {
			t.Fatalf("PublishBytes: %v", err)
		}
		if _, err := s.Attach("alex", mi100(), fp); !errors.Is(err, ErrNoImage) {
			t.Fatalf("want ErrNoImage, got %v", err)
		}
		if s.Stats().Quarantined != 1 {
			t.Fatalf("stats: %+v", s.Stats())
		}
	})

	t.Run("corrupt alongside valid falls through to attach", func(t *testing.T) {
		s, _ := Open(t.TempDir())
		raw, _ := img.Encode()
		bad := make([]byte, len(raw))
		copy(bad, raw)
		bad[len(bad)-1] ^= 0x01
		if err := s.PublishBytes("00ffee0011223344", bad); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Publish(img); err != nil {
			t.Fatal(err)
		}
		att, err := s.Attach("alex", mi100(), fp)
		if err != nil {
			t.Fatalf("Attach: %v", err)
		}
		if att.Image.Model != "alex" {
			t.Fatalf("unexpected attach: %+v", att)
		}
		st := s.Stats()
		if st.Quarantined != 1 || st.AttachOK != 1 {
			t.Fatalf("stats: %+v", st)
		}
	})
}

func TestOpenSweepsTornTempFiles(t *testing.T) {
	dir := t.TempDir()
	torn := filepath.Join(dir, tmpPrefix+"12345")
	if err := os.WriteFile(torn, []byte("half an image"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.Stats().TornCleaned != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn temp file survived Open: %v", err)
	}
}

func TestPublishRejectsPathTraversal(t *testing.T) {
	s, _ := Open(t.TempDir())
	if err := s.PublishBytes("../evil", []byte("x")); err == nil {
		t.Fatal("PublishBytes accepted a path-traversal id")
	}
}
