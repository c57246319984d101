// Package cacheimg packages a warmup manifest together with its code
// objects into a distributable, verifiable "cache image" — the cluster-scale
// extension of the paper's cold-start mitigation (§I deployment scenarios,
// §III-A proactive loading). A warmup manifest (DESIGN.md §12) replays warm
// state within one host; a cache image makes that warm state a fleet
// artifact: one node records a load profile, seals it with its code-object
// bytes into a content-addressed image, and every other node attaches the
// image instead of paying its own cold discovery.
//
// A distributed artifact is only useful if every failure mode degrades to a
// correct cold start, so the format is defensive end to end: a versioned
// binary header (ErrVersion for newer writers, ErrCorrupt for structural
// damage, mirroring the warmup manifest contract), a CRC-32 per packaged
// object, a whole-image CRC trailer, and a content address (FNV-64a of the
// encoded bytes) that doubles as the distribution name — a transfer that
// damaged the bytes no longer matches its own name. Validation on attach is
// a ladder (DESIGN.md §14): wrong device profile → typed reject, any digest
// mismatch → quarantine, a store fingerprint that no longer matches the
// live code-object store → stale, plain cold start. The Store is the
// node-local image directory with atomic temp-file + rename publish, so a
// crash mid-transfer can never leave a torn image where attach would find
// it.
//
// Paper anchor: §I deployment scenarios + §III-A proactive loading, extended fleet-scale beyond the paper (DESIGN.md §14).
package cacheimg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"

	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/warmup"
)

// Format constants.
const (
	// Magic identifies a PASK kernel-cache image.
	Magic = "PKI1"
	// Version is the image format version this package writes and the
	// newest it understands; larger versions are rejected with ErrVersion.
	Version = 1
	// maxStringLen bounds length-prefixed strings so corrupt headers cannot
	// drive huge allocations.
	maxStringLen = 1 << 16
	// maxObjects bounds the packaged object count for the same reason.
	maxObjects = 1 << 12
)

// Typed errors of the attach validation ladder. Every failure mode maps to
// exactly one sentinel so callers (and HTTP envelopes) can tell a reject
// from a quarantine from a plain miss.
var (
	// ErrVersion marks an image written by a newer format version.
	ErrVersion = errors.New("cacheimg: unsupported image version")
	// ErrCorrupt marks structural damage: bad magic, truncation, a
	// per-object CRC mismatch, a whole-image digest mismatch, or a content
	// address that does not match the bytes. Corrupt images are
	// quarantined, never attached.
	ErrCorrupt = errors.New("cacheimg: corrupt image")
	// ErrProfileMismatch marks an image built for a different device
	// profile — structurally healthy, but its load profile would warm the
	// wrong kernels. Rejected, not quarantined.
	ErrProfileMismatch = errors.New("cacheimg: image built for a different device profile")
	// ErrStale marks an image whose recorded store fingerprint no longer
	// matches the live code-object store: the artifacts changed underneath
	// it. The attach degrades to a cold start.
	ErrStale = errors.New("cacheimg: image is stale against the live code-object store")
	// ErrNoImage marks an attach that found no candidate image for the
	// model — the ordinary cold-start case, not a failure.
	ErrNoImage = errors.New("cacheimg: no image for model")
)

// Object is one packaged code object: the store path, the bytes, and their
// CRC-32 (IEEE — the same family the PKO container and warmup manifests
// use).
type Object struct {
	Path     string
	Checksum uint32
	Data     []byte
}

// Image is a decoded cache image: the warmup manifest a prefetcher replays,
// plus the code-object bytes that manifest refers to, keyed by the device
// profile it was recorded on and sealed against the code-object store it
// was built from.
type Image struct {
	Version int
	Model   string
	Device  string
	Arch    string
	Batch   int
	// StoreFingerprint is codeobj.Store.Fingerprint() at build time. An
	// attach against a store with a different fingerprint is stale: the
	// artifacts changed since the image was sealed.
	StoreFingerprint uint32
	Manifest         *warmup.Manifest
	Objects          []Object
}

// ID returns the content address of an encoded image: the FNV-64a hash of
// its bytes in hex. Distribution names images by ID, so bytes damaged in
// flight no longer match the name they were advertised under.
func ID(raw []byte) string {
	h := fnv.New64a()
	h.Write(raw)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Build seals a recorded manifest and its code objects into an image. Every
// manifest entry must be readable from the store and still match its
// recorded checksum — an image must never package bytes the profile did not
// see.
func Build(man *warmup.Manifest, store *codeobj.Store) (*Image, error) {
	if man == nil {
		return nil, errors.New("cacheimg: build: nil manifest")
	}
	img := &Image{
		Version: Version,
		Model:   man.Model, Device: man.Device, Arch: man.Arch, Batch: man.Batch,
		StoreFingerprint: store.Fingerprint(),
		Manifest:         man,
	}
	for _, e := range man.Entries {
		data, err := store.Get(e.Path)
		if err != nil {
			return nil, fmt.Errorf("cacheimg: build: object %q: %w", e.Path, err)
		}
		if warmup.Checksum(data) != e.Checksum {
			return nil, fmt.Errorf("cacheimg: build: object %q changed since the profile was recorded", e.Path)
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		img.Objects = append(img.Objects, Object{Path: e.Path, Checksum: e.Checksum, Data: cp})
	}
	return img, nil
}

func writeString(buf *bytes.Buffer, s string) {
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(s)))
	buf.Write(lenb[:])
	buf.WriteString(s)
}

func readString(r *bytes.Reader) (string, error) {
	var lenb [4]byte
	if _, err := readFull(r, lenb[:]); err != nil {
		return "", fmt.Errorf("%w: truncated string", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	if n > maxStringLen {
		return "", fmt.Errorf("%w: string length %d exceeds limit", ErrCorrupt, n)
	}
	b := make([]byte, n)
	if _, err := readFull(r, b); err != nil {
		return "", fmt.Errorf("%w: truncated string", ErrCorrupt)
	}
	return string(b), nil
}

func readFull(r *bytes.Reader, b []byte) (int, error) {
	n := 0
	for n < len(b) {
		m, err := r.Read(b[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Encode serializes the image. Encoding is canonical: the same image
// encodes to byte-identical output (the embedded manifest JSON sorts its
// keys), so the content address is stable.
func (img *Image) Encode() ([]byte, error) {
	if len(img.Objects) > maxObjects {
		return nil, fmt.Errorf("cacheimg: %d objects exceeds limit %d", len(img.Objects), maxObjects)
	}
	if img.Manifest == nil {
		return nil, errors.New("cacheimg: encode: image has no manifest")
	}
	manData, err := img.Manifest.Encode()
	if err != nil {
		return nil, fmt.Errorf("cacheimg: encode manifest: %w", err)
	}
	var buf bytes.Buffer
	buf.WriteString(Magic)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(img.Version))
	buf.Write(u16[:])
	writeString(&buf, img.Model)
	writeString(&buf, img.Device)
	writeString(&buf, img.Arch)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(img.Batch))
	buf.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], img.StoreFingerprint)
	buf.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], uint32(len(manData)))
	buf.Write(u32[:])
	buf.Write(manData)
	binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(manData))
	buf.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], uint32(len(img.Objects)))
	buf.Write(u32[:])
	for _, o := range img.Objects {
		writeString(&buf, o.Path)
		binary.LittleEndian.PutUint32(u32[:], uint32(len(o.Data)))
		buf.Write(u32[:])
		buf.Write(o.Data)
		binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(o.Data))
		buf.Write(u32[:])
	}
	binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(u32[:])
	return buf.Bytes(), nil
}

// Decode validates and parses a serialized image. Every error unwraps to
// ErrCorrupt (structural damage, digest mismatch) or ErrVersion (newer
// format) — arbitrary bytes never panic and never produce an untyped error.
func Decode(raw []byte) (*Image, error) {
	if len(raw) < len(Magic)+2+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any image", ErrCorrupt, len(raw))
	}
	if string(raw[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: whole-image digest mismatch", ErrCorrupt)
	}
	r := bytes.NewReader(body[len(Magic):])
	var u16 [2]byte
	if _, err := readFull(r, u16[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	version := int(binary.LittleEndian.Uint16(u16[:]))
	if version > Version {
		return nil, fmt.Errorf("%w: image version %d, this build understands <= %d", ErrVersion, version, Version)
	}
	if version < 1 {
		return nil, fmt.Errorf("%w: invalid version %d", ErrCorrupt, version)
	}
	img := &Image{Version: version}
	var err error
	if img.Model, err = readString(r); err != nil {
		return nil, err
	}
	if img.Device, err = readString(r); err != nil {
		return nil, err
	}
	if img.Arch, err = readString(r); err != nil {
		return nil, err
	}
	var u32 [4]byte
	if _, err := readFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	img.Batch = int(binary.LittleEndian.Uint32(u32[:]))
	if _, err := readFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	img.StoreFingerprint = binary.LittleEndian.Uint32(u32[:])

	if _, err := readFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated manifest header", ErrCorrupt)
	}
	manLen := int(binary.LittleEndian.Uint32(u32[:]))
	if manLen > r.Len() {
		return nil, fmt.Errorf("%w: manifest length %d exceeds remaining %d bytes", ErrCorrupt, manLen, r.Len())
	}
	manData := make([]byte, manLen)
	if _, err := readFull(r, manData); err != nil {
		return nil, fmt.Errorf("%w: truncated manifest", ErrCorrupt)
	}
	if _, err := readFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated manifest digest", ErrCorrupt)
	}
	if crc32.ChecksumIEEE(manData) != binary.LittleEndian.Uint32(u32[:]) {
		return nil, fmt.Errorf("%w: manifest digest mismatch", ErrCorrupt)
	}
	man, err := warmup.Decode(manData)
	if err != nil {
		// The embedded manifest carries its own version contract: surface a
		// newer manifest as ErrVersion, anything else as corruption.
		if errors.Is(err, warmup.ErrVersion) {
			return nil, fmt.Errorf("%w: embedded manifest: %v", ErrVersion, err)
		}
		return nil, fmt.Errorf("%w: embedded manifest: %v", ErrCorrupt, err)
	}
	img.Manifest = man

	if _, err := readFull(r, u32[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated object count", ErrCorrupt)
	}
	no := binary.LittleEndian.Uint32(u32[:])
	if no > maxObjects {
		return nil, fmt.Errorf("%w: object count %d out of range", ErrCorrupt, no)
	}
	seen := make(map[string]bool, no)
	for i := 0; i < int(no); i++ {
		var o Object
		if o.Path, err = readString(r); err != nil {
			return nil, err
		}
		if o.Path == "" {
			return nil, fmt.Errorf("%w: object %d has no path", ErrCorrupt, i)
		}
		if seen[o.Path] {
			return nil, fmt.Errorf("%w: duplicate object %q", ErrCorrupt, o.Path)
		}
		seen[o.Path] = true
		if _, err := readFull(r, u32[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated object header", ErrCorrupt)
		}
		dataLen := int(binary.LittleEndian.Uint32(u32[:]))
		if dataLen > r.Len() {
			return nil, fmt.Errorf("%w: object %q length %d exceeds remaining %d bytes", ErrCorrupt, o.Path, dataLen, r.Len())
		}
		o.Data = make([]byte, dataLen)
		if _, err := readFull(r, o.Data); err != nil {
			return nil, fmt.Errorf("%w: truncated object %q", ErrCorrupt, o.Path)
		}
		if _, err := readFull(r, u32[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated object digest", ErrCorrupt)
		}
		o.Checksum = binary.LittleEndian.Uint32(u32[:])
		if crc32.ChecksumIEEE(o.Data) != o.Checksum {
			return nil, fmt.Errorf("%w: object %q digest mismatch", ErrCorrupt, o.Path)
		}
		img.Objects = append(img.Objects, o)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Len())
	}
	return img, nil
}

// Matches checks the image against a device profile — the first rung of the
// attach ladder after structural validation. A mismatch is a typed reject:
// the image is healthy, just not for this device.
func (img *Image) Matches(prof device.Profile) error {
	if img.Device != prof.Name || img.Arch != prof.Arch {
		return fmt.Errorf("%w: image is %s/%s, device is %s/%s",
			ErrProfileMismatch, img.Device, img.Arch, prof.Name, prof.Arch)
	}
	return nil
}

// CheckFingerprint checks the image's sealed store fingerprint against the
// live store's — the staleness rung of the attach ladder. A mismatch means
// the code objects changed since the image was built; replaying its
// manifest could only count stale entries, so the attach degrades to cold.
func (img *Image) CheckFingerprint(live uint32) error {
	if img.StoreFingerprint != live {
		return fmt.Errorf("%w: image sealed at %08x, live store is %08x", ErrStale, img.StoreFingerprint, live)
	}
	return nil
}
