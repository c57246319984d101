package serving

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"pask/internal/experiments"
	"pask/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata goldens")

// goldenExperiments are the registered serving experiments, whose output
// is a pure function of the code. chaos and multitenant record no
// timeline.
var goldenExperiments = []struct {
	name   string
	traced bool
}{
	{"chaos", false}, {"multitenant", false}, {"overload", true}, {"cacheimage", true},
	{"placement", true}, {"predictive", true}, {"failover", true},
}

// traceDigest pins one Chrome trace. The traces run to megabytes, so the
// golden keeps their size and hash rather than the bytes.
type traceDigest struct {
	Bytes  int    `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// TestExperimentGoldens pins every deterministic serving experiment at quick
// size, byte for byte: the result envelope `paskbench -exp <name> -quick
// -out` writes (testdata/golden/<name>.json) and a digest of the Chrome
// trace `-trace` writes (testdata/golden/traces.json), which must also pass
// the structural check of `paskbench -validate-trace`. A committed file
// makes "the same seed gives the same bytes" hold across processes and
// commits, not only across two runs in one test. After a deliberate
// behaviour change, regenerate with
//
//	go test ./internal/serving -run TestExperimentGoldens -update
//
// and review the envelope diff.
func TestExperimentGoldens(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	tracesPath := filepath.Join(dir, "traces.json")
	// -update rewrites only the entries of the experiments that ran, so a
	// -run filter keeps the other digests.
	want := map[string]traceDigest{}
	data, err := os.ReadFile(tracesPath)
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil && !(*update && errors.Is(err, fs.ErrNotExist)) {
		t.Fatalf("read trace goldens (regenerate with -update): %v", err)
	}
	for _, g := range goldenExperiments {
		name := g.name
		t.Run(name, func(t *testing.T) {
			e, ok := experiments.Lookup(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			rec := trace.New()
			res, err := e.Run(experiments.Options{Quick: true, Trace: rec})
			if err != nil {
				t.Fatal(err)
			}
			env, err := json.MarshalIndent(experiments.NewEnvelope(name, res), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			env = append(env, '\n')
			var tr bytes.Buffer
			if err := rec.WriteChrome(&tr); err != nil {
				t.Fatal(err)
			}
			if g.traced {
				if _, err := trace.ValidateChrome(tr.Bytes()); err != nil {
					t.Errorf("trace fails validation: %v", err)
				}
			}
			sum := sha256.Sum256(tr.Bytes())
			digest := traceDigest{Bytes: tr.Len(), SHA256: hex.EncodeToString(sum[:])}

			path := filepath.Join(dir, name+".json")
			if *update {
				want[name] = digest
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, env, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read envelope golden (regenerate with -update): %v", err)
			}
			if line, gotLine, wantLine := firstLineDiff(env, golden); line > 0 {
				t.Errorf("envelope drifted from %s at line %d:\n got: %s\nwant: %s", path, line, gotLine, wantLine)
			}
			if digest != want[name] {
				t.Errorf("trace drifted from %s: got %+v, want %+v", tracesPath, digest, want[name])
			}
		})
	}
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tracesPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// firstLineDiff returns the 1-based number and contents of the first line
// where a and b differ, or 0 when they are identical.
func firstLineDiff(a, b []byte) (int, string, string) {
	if bytes.Equal(a, b) {
		return 0, "", ""
	}
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; ; i++ {
		var x, y []byte
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if !bytes.Equal(x, y) || i >= len(al) || i >= len(bl) {
			return i + 1, string(x), string(y)
		}
	}
}
