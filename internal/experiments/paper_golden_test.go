package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestPaperGoldens pins every experiment this package registers (the paper
// figures and tables, coldstart, warmup, the ablations and the ext-*
// extensions) at quick size, byte for byte: the result envelope
// `paskbench -exp <name> -quick -out` writes (testdata/golden/<name>.json).
// It also checks each experiment's digest, SHA-256 over every table's CSV
// followed by the envelope JSON, against bench/golden/sweep.json, the file
// the end-to-end benchmark checks its sweep against; that file is only
// read here, never written. After a deliberate behaviour change, regenerate
// the envelopes with
//
//	go test ./internal/experiments -run TestPaperGoldens -update
//
// review the diff, and re-record bench/golden/sweep.json with the benchmark.
func TestPaperGoldens(t *testing.T) {
	sweepPath := filepath.Join("..", "..", "bench", "golden", "sweep.json")
	data, err := os.ReadFile(sweepPath)
	if err != nil {
		t.Fatal(err)
	}
	var digests map[string]string
	if err := json.Unmarshal(data, &digests); err != nil {
		t.Fatalf("%s: %v", sweepPath, err)
	}
	dir := filepath.Join("testdata", "golden")
	for _, e := range All() {
		t.Run(e.Name, func(t *testing.T) {
			res, err := e.Run(Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			env, err := json.MarshalIndent(NewEnvelope(e.Name, res), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			env = append(env, '\n')

			h := sha256.New()
			for _, tbl := range res.Tables {
				h.Write([]byte(tbl.CSV()))
			}
			compact, err := json.Marshal(NewEnvelope(e.Name, res))
			if err != nil {
				t.Fatal(err)
			}
			h.Write(compact)
			if got, want := hex.EncodeToString(h.Sum(nil)), digests[e.Name]; got != want {
				t.Errorf("digest %s differs from %s's %q", got, sweepPath, want)
			}

			path := filepath.Join(dir, e.Name+".json")
			if *update {
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
			if !bytes.Equal(env, golden) {
				got, want := bytes.Split(env, []byte("\n")), bytes.Split(golden, []byte("\n"))
				for i := 0; i < len(got) && i < len(want); i++ {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("envelope drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, got[i], want[i])
					}
				}
				t.Errorf("envelope drifted from %s: %d lines, golden has %d", path, len(got), len(want))
			}
		})
	}
}
