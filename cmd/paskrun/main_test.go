package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pask/internal/metrics"
)

// TestBreakdownTiesFollowPriority checks that equal durations print in
// metrics.DefaultPriority order, every time, with CatOther after them.
func TestBreakdownTiesFollowPriority(t *testing.T) {
	bd := map[metrics.Category]time.Duration{metrics.CatOther: time.Millisecond}
	for _, c := range metrics.DefaultPriority() {
		bd[c] = time.Millisecond
	}
	bd[metrics.CatSync] = 2 * time.Millisecond // the longest leads regardless of rank

	var want []string
	want = append(want, string(metrics.CatSync))
	for _, c := range metrics.DefaultPriority() {
		if c != metrics.CatSync {
			want = append(want, string(c))
		}
	}
	want = append(want, string(metrics.CatOther))

	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		writeBreakdown(&buf, bd, 20*time.Millisecond)
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			got = append(got, strings.Fields(line)[0])
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("run %d printed %v, want %v", i, got, want)
		}
	}
}

// TestStdoutGolden pins paskrun's stdout, report, breakdown and timeline
// included, for res under PaSK on MI100: a plain run, a faulted run, and a
// warmup round trip (a run that records its load profile, then a run that
// replays it). Each run's output is testdata/golden/<name>.txt. After a
// deliberate change to the output, regenerate the files from this
// directory with the cases' arguments, in order, e.g.
//
//	go run . -model res -scheme PaSK > testdata/golden/plain.txt
//
// and delete the res.profile.json the record case leaves behind.
func TestStdoutGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "paskrun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	work := t.TempDir() // the round trip's profile lands here
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"plain", nil},
		{"faults", []string{"-faults", "transient=0.1,seed=7"}},
		{"record", []string{"-record-profile", "res.profile.json"}},
		{"warmup", []string{"-warmup", "res.profile.json"}},
	} {
		cmd := exec.Command(bin, append([]string{"-model", "res", "-scheme", "PaSK"}, tc.args...)...)
		cmd.Dir = work
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		got, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v\n%s", tc.name, err, stderr.Bytes())
		}
		path := filepath.Join("testdata", "golden", tc.name+".txt")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: stdout differs from %s\n got:\n%s\nwant:\n%s", tc.name, path, got, want)
		}
	}
}
