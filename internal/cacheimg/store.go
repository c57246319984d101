package cacheimg

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pask/internal/device"
)

// imageExt is the on-disk suffix of a published image; quarantined images
// are renamed to quarantineExt so a later attach scan never re-reads them.
const (
	imageExt      = ".pki"
	quarantineExt = ".quarantined"
	tmpPrefix     = ".tmp-"
)

// Stats counts every outcome the store has produced. All counters are
// monotonic; the serving layer and /metrics surface them directly.
type Stats struct {
	Published       int `json:"published"`        // images atomically published
	AttachOK        int `json:"attach_ok"`        // successful attaches
	RejectedProfile int `json:"rejected_profile"` // healthy image, wrong device
	Quarantined     int `json:"quarantined"`      // corrupt or misnamed, renamed aside
	Stale           int `json:"stale"`            // store fingerprint drifted
	NoImage         int `json:"no_image"`         // attach found no candidate
	TornCleaned     int `json:"torn_cleaned"`     // crash leftovers removed at open
}

// Info describes one published image without decoding its payload.
type Info struct {
	ID    string `json:"id"`
	Bytes int64  `json:"bytes"`
}

// Attached is a successful attach: the image plus the content address it
// was served under.
type Attached struct {
	ID    string
	Image *Image
}

// Store is a node-local cache-image directory. Publish is atomic (temp
// file in the same directory, then rename), so a reader can never observe
// a torn image under a published name; whatever a crash leaves behind is a
// tmpPrefix file that Open sweeps.
//
// No locking: in the simulation each node owns its store and procs are
// cooperative; outside it, the rename-based protocol is already safe
// against concurrent readers.
type Store struct {
	dir   string
	stats Stats
}

// Open creates (if needed) and opens the image directory, sweeping torn
// temp files left by a crash mid-publish.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cacheimg: open store: %w", err)
	}
	s := &Store{dir: dir}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cacheimg: open store: %w", err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			if os.Remove(filepath.Join(dir, e.Name())) == nil {
				s.stats.TornCleaned++
			}
		}
	}
	return s, nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats { return s.stats }

// writeAtomic lands raw at path via a same-directory temp file + rename.
func (s *Store) writeAtomic(path string, raw []byte) error {
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("cacheimg: publish: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("cacheimg: publish: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("cacheimg: publish: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("cacheimg: publish: %w", err)
	}
	return nil
}

// Publish encodes the image and lands it atomically under its content
// address, returning the ID.
func (s *Store) Publish(img *Image) (string, error) {
	raw, err := img.Encode()
	if err != nil {
		return "", err
	}
	id := ID(raw)
	if err := s.writeAtomic(filepath.Join(s.dir, id+imageExt), raw); err != nil {
		return "", err
	}
	s.stats.Published++
	return id, nil
}

// PublishBytes lands already-encoded bytes under an advertised ID without
// verifying them — the wire side of distribution. A transfer that corrupted
// the bytes still lands (atomically), and the damage is caught on attach,
// where the content address no longer matches the name.
func (s *Store) PublishBytes(id string, raw []byte) error {
	if id == "" || strings.ContainsAny(id, "/\\") {
		return fmt.Errorf("cacheimg: publish: invalid id %q", id)
	}
	if err := s.writeAtomic(filepath.Join(s.dir, id+imageExt), raw); err != nil {
		return err
	}
	s.stats.Published++
	return nil
}

// List returns the published images, sorted by ID.
func (s *Store) List() ([]Info, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("cacheimg: list: %w", err)
	}
	var out []Info
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, imageExt) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, Info{ID: strings.TrimSuffix(name, imageExt), Bytes: fi.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// quarantine renames a damaged image aside so no future attach re-reads it.
func (s *Store) quarantine(path string) {
	if os.Rename(path, path+quarantineExt) == nil {
		s.stats.Quarantined++
	}
}

// Attach scans the store for an image for model and walks each candidate
// down the validation ladder (DESIGN.md §14):
//
//  1. content address vs. filename, then structural decode and digests —
//     any mismatch quarantines the image and the scan continues;
//  2. model match — images for other models are skipped silently;
//  3. device profile — a mismatch is a typed reject (ErrProfileMismatch);
//  4. store fingerprint — drift is ErrStale;
//  5. otherwise the image attaches.
//
// When no candidate survives, the first typed rejection encountered is
// returned so callers can distinguish "wrong image" from "no image"
// (ErrNoImage). Every outcome increments a Stats counter.
func (s *Store) Attach(model string, prof device.Profile, liveFingerprint uint32) (*Attached, error) {
	infos, err := s.List()
	if err != nil {
		return nil, err
	}
	var firstReject error
	for _, info := range infos {
		path := filepath.Join(s.dir, info.ID+imageExt)
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if ID(raw) != info.ID {
			// The bytes do not match the name they were advertised under:
			// damaged in flight or renamed by hand. Same fate as corrupt.
			s.quarantine(path)
			continue
		}
		img, err := Decode(raw)
		if err != nil {
			s.quarantine(path)
			continue
		}
		if img.Model != model {
			continue
		}
		if err := img.Matches(prof); err != nil {
			s.stats.RejectedProfile++
			if firstReject == nil {
				firstReject = err
			}
			continue
		}
		if err := img.CheckFingerprint(liveFingerprint); err != nil {
			s.stats.Stale++
			if firstReject == nil {
				firstReject = err
			}
			continue
		}
		s.stats.AttachOK++
		return &Attached{ID: info.ID, Image: img}, nil
	}
	if firstReject != nil {
		return nil, firstReject
	}
	s.stats.NoImage++
	return nil, fmt.Errorf("%w: %s on %s", ErrNoImage, model, prof.Name)
}
