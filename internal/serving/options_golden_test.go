package serving

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"pask/internal/experiments"
	"pask/internal/trace"
)

// optionsGoldens are the SHA-256 digests of each experiment's result
// envelope and Chrome trace under optionsGoldenOpts.
var optionsGoldens = map[string]struct{ envelope, trace string }{
	"chaos": {
		"733d230cc045be915f71790dd4141ed8fa1bcba8455b2d956e9deaa2605912d8",
		"f5ebe1a622b05fbd55b9e8728af9b2a55c0b3b77465c70a3c713e699f7571f59"},
	"multitenant": {
		"27f3c860e2f1fe8d3cc153be34ba18e554e68d32b79fe96c96f9e2e24ac49222",
		"f5ebe1a622b05fbd55b9e8728af9b2a55c0b3b77465c70a3c713e699f7571f59"},
	"overload": {
		"f9ad87b2a9237e61c04a9cadb1d41a90cfc694493bbece82f7d2a1670b461c56",
		"6aab006a23459c279326ad5644ce55fb8b77c05faf2bb1ae5abf4d450335b15a"},
	"cacheimage": {
		"a3887ef354c9559407dec104d67e015bc81f2fdf59499b7b15c73599b39518b9",
		"256fe97c38129ce1a79cae5fcc4df2c354e5ce908e2ede1f83a0da287c7c1883"},
	"placement": {
		"fce8ff40e5840feb92100f1f2ca57baca5735b0fd883ac26ddeb47826e4cd399",
		"2b4f7676a0373c3e31fd956e7d0f0e0dbbb02d358f5973433e270158f3efb0fa"},
	"predictive": {
		"5bfbac4e295479ac8ee21ea0a664242bef0152ca76d25d5907f63ade341d392a",
		"8027204400a2df0ff448c616dc893cbe6d2a4e92ae241619a17bfd37972b5a13"},
	"failover": {
		"b643e58590c5ce9e1a7f009cb77b0f9869633a7eaf440028226efa9603fcc13a",
		"26cf5bce24c791feeb6b0e4b6fb6dbb7d375706e4fdc0f4fcf2dc8665c4728b8"},
}

// optionsGoldenOpts is a non-default selection: TestExperimentGoldens runs
// with Quick alone, so it never shows how an experiment reads Models and
// Batches.
func optionsGoldenOpts(rec *trace.Recorder) experiments.Options {
	return experiments.Options{Quick: true, Models: []string{"alex", "vgg"}, Batches: []int{2}, Trace: rec}
}

// TestExperimentOptionsGoldens pins how the registered serving experiments
// translate explicit models and batches: which model each picks from the
// selection, which batch it runs, and what it records. Envelope and trace
// are compared by digest.
func TestExperimentOptionsGoldens(t *testing.T) {
	for name, want := range optionsGoldens {
		t.Run(name, func(t *testing.T) {
			e, ok := experiments.Lookup(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			rec := trace.New()
			res, err := e.Run(optionsGoldenOpts(rec))
			if err != nil {
				t.Fatal(err)
			}
			env, err := json.MarshalIndent(experiments.NewEnvelope(name, res), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			var tr bytes.Buffer
			if err := rec.WriteChrome(&tr); err != nil {
				t.Fatal(err)
			}
			envSum, trSum := sha256.Sum256(append(env, '\n')), sha256.Sum256(tr.Bytes())
			if got := hex.EncodeToString(envSum[:]); got != want.envelope {
				t.Errorf("envelope sha256 = %s, want %s", got, want.envelope)
			}
			if got := hex.EncodeToString(trSum[:]); got != want.trace {
				t.Errorf("trace sha256 = %s, want %s", got, want.trace)
			}
		})
	}
}
