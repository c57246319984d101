package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pask/internal/experiments"
)

// TestMenuDriftGuard asserts every registered experiment name appears in
// the EXPERIMENTS.md menu and in the paskbench usage text, so the
// registry, the docs and the CLI can't silently diverge: registering an
// experiment without documenting it (or documenting one that no longer
// exists in the usage string) fails CI.
func TestMenuDriftGuard(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	menu := string(doc)
	usage := usageMenu()
	for _, name := range experiments.Names() {
		if !strings.Contains(menu, name) {
			t.Errorf("experiment %q not mentioned in EXPERIMENTS.md", name)
		}
		if !strings.Contains(usage, name) {
			t.Errorf("experiment %q missing from paskbench usage", name)
		}
	}
	// The verbatim -exp menu in EXPERIMENTS.md must spell out exactly the
	// sorted registry names (whitespace-normalized — the list wraps across
	// lines), so the docs can't drift to a stale enumeration.
	flat := strings.Join(strings.Fields(menu), " ")
	wantMenu := "list, all, " + strings.Join(experiments.Names(), ", ")
	if !strings.Contains(flat, wantMenu) {
		t.Errorf("EXPERIMENTS.md -exp menu is stale: expected the verbatim list %q", wantMenu)
	}
	// The generated usage must not advertise names the registry lost.
	for _, tok := range strings.Split(usage, ", ") {
		if tok == "list" || tok == "all" {
			continue
		}
		if _, ok := experiments.Lookup(tok); !ok {
			t.Errorf("usage advertises %q, which is not registered", tok)
		}
	}
}

// TestMenuCoversLegacyNames pins that every historical -exp name keeps
// resolving through the registry.
func TestMenuCoversLegacyNames(t *testing.T) {
	legacy := []string{
		"coldstart", "warmup", "cacheimage", "fig1a", "fig1b", "fig4", "fig6",
		"fig7", "fig8", "fig9", "table2", "ext-blas", "ext-precision",
		"ext-background", "ablations", "ext-crossmodel", "chaos",
		"multitenant", "overload", "placement",
	}
	for _, name := range legacy {
		if _, ok := experiments.Lookup(name); !ok {
			t.Errorf("legacy -exp name %q no longer registered", name)
		}
	}
	if _, ok := experiments.Lookup("predictive"); !ok {
		t.Error("predictive not registered")
	}
}

// TestStartProfiles checks that -cpuprofile and -memprofile each write a
// non-empty profile once the run stops, and that empty paths write nothing.
func TestStartProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, size %v", p, err, fi)
		}
	}
	stop, err = startProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := startProfiles(filepath.Join(dir, "missing", "cpu.out"), ""); err == nil {
		t.Error("unwritable -cpuprofile path accepted")
	}
}
