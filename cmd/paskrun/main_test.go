package main

import (
	"bytes"
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
