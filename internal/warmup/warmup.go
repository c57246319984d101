// Package warmup implements profile-guided cold-start mitigation across
// process lifetimes — the cross-run extension of the paper's §III-A
// proactive loading. PASK's three-thread pipeline only overlaps loading
// with *this* run's parse; every process start is still cold because the
// runtime forgets which solutions a model actually used. This package
// closes that loop: a Recorder captures the executor's realized per-layer
// decisions (ordered solution keys, code-object ids with checksums, the
// observed pattern→solution substitutions), the result serializes to a
// versioned JSON Manifest, and on the next cold start a Prefetcher replays
// the manifest through the shared backend runtime before and during parse, so
// the pipeline finds its modules already resident. Singleflight load
// coalescing in the runtime makes replay and demand loads converge safely;
// stale manifest entries (checksum mismatch against the store) are skipped
// and counted, never failed on.
//
// Paper anchor: §III-A proactive loading extended across process lifetimes (DESIGN.md §12).
package warmup

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/graphx"
	"pask/internal/miopen"
)

// Version is the manifest format version this package writes and the
// newest it understands. Manifests from older writers decode as long as
// their fields parse; a larger version is rejected with ErrVersion.
const Version = 1

// ErrVersion marks a manifest written by a newer format version than this
// package understands.
var ErrVersion = errors.New("warmup: unsupported manifest version")

// ErrCorrupt marks a manifest that is not valid JSON or is structurally
// unusable. Callers on the cold-start path treat it as "no manifest" and
// proceed cold.
var ErrCorrupt = errors.New("warmup: corrupt manifest")

// Checksum is the integrity hash manifests store per code object: the
// CRC-32 (IEEE polynomial) of the whole container. A PKO container ends in
// the little-endian CRC-32 of the bytes before it, so for every well-formed
// object this is the same residue, 0x2144df1c. The prefetcher's stale check
// and cacheimg.Build's "changed since the profile" check therefore catch a
// damaged object but not its replacement by a different valid one.
func Checksum(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// Entry is one code object the profiled run loaded, in first-use order.
type Entry struct {
	// Path is the object's store path (solution key for primitives).
	Path string `json:"path"`
	// Checksum is Checksum of the object's container bytes at record
	// time. A mismatch at replay time marks the entry stale; see Checksum
	// for what it cannot tell apart.
	Checksum uint32 `json:"checksum"`
	// Bytes is the container size at record time (informational).
	Bytes int `json:"bytes,omitempty"`
	// Kind classifies the object: "solution", "transform", "builtin" or
	// "blas".
	Kind string `json:"kind,omitempty"`
}

// Substitution records one layer the profiled run served with a different
// solution than the statically selected one (a reuse hit or a degradation
// fallback) — the observed pattern→solution mapping.
type Substitution struct {
	Layer    string `json:"layer"`
	Pattern  string `json:"pattern"`
	Selected string `json:"selected"` // statically selected solution key
	Chosen   string `json:"chosen"`   // key of the instance that actually ran
}

// Manifest is a per-model load profile: everything a prefetcher needs to
// make the next cold start find its modules resident. Decode ignores fields
// this version does not know, so manifests written by newer minor revisions
// still load.
type Manifest struct {
	Version int    `json:"version"`
	Model   string `json:"model,omitempty"`
	Batch   int    `json:"batch,omitempty"`
	Device  string `json:"device,omitempty"`
	Arch    string `json:"arch,omitempty"`

	Entries       []Entry        `json:"entries"`
	Substitutions []Substitution `json:"substitutions,omitempty"`
}

// Encode serializes the manifest as indented JSON.
func (m *Manifest) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("warmup: encode manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// Decode parses a manifest, ignoring fields this version does not know.
// Errors unwrap to ErrCorrupt (bad JSON or structure) or ErrVersion (newer
// format).
func Decode(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if m.Version > Version {
		return nil, fmt.Errorf("%w: manifest version %d, this build understands <= %d", ErrVersion, m.Version, Version)
	}
	if m.Version < 1 {
		return nil, fmt.Errorf("%w: missing or invalid version field", ErrCorrupt)
	}
	for i := range m.Entries {
		if m.Entries[i].Path == "" {
			return nil, fmt.Errorf("%w: entry %d has no path", ErrCorrupt, i)
		}
	}
	return &m, nil
}

// WriteFile serializes the manifest to path. The write is atomic — the
// bytes land in a temp file in the same directory which is then renamed
// over path — so a crash mid-write leaves either the old manifest or a
// stray temp file, never a truncated manifest at path.
func WriteFile(path string, m *Manifest) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("warmup: write manifest: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("warmup: write manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("warmup: write manifest: %w", err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("warmup: write manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("warmup: write manifest: %w", err)
	}
	return nil
}

// ReadFile loads and decodes the manifest at path.
func ReadFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("warmup: read manifest: %w", err)
	}
	return Decode(data)
}

// checksumEntry builds one entry from the store's current bytes; ok is
// false when the object cannot be read (it is then left out — a replay
// would only count it stale).
func checksumEntry(store *codeobj.Store, kind, path string) (Entry, bool) {
	data, err := store.Get(path)
	if err != nil {
		return Entry{}, false
	}
	return Entry{Path: path, Checksum: Checksum(data), Bytes: len(data), Kind: kind}, true
}

// FromModel builds a static-plan manifest from a compiled model: the code
// objects the statically selected plan would load, in program order. It is
// the bootstrap profile for models that have never run — weaker than a
// recorded profile (it cannot know which loads selective reuse will skip),
// but enough to hide most load time behind process bring-up.
func FromModel(m *graphx.CompiledModel, reg *miopen.Registry, store *codeobj.Store, prof device.Profile) (*Manifest, error) {
	paths, err := m.DistinctObjects(reg)
	if err != nil {
		return nil, fmt.Errorf("warmup: static profile for %s: %w", m.Name, err)
	}
	man := &Manifest{
		Version: Version, Model: m.Name, Batch: m.Batch,
		Device: prof.Name, Arch: prof.Arch,
	}
	for _, p := range paths {
		if e, ok := checksumEntry(store, "", p); ok {
			man.Entries = append(man.Entries, e)
		}
	}
	return man, nil
}
