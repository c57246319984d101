package faults

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// planKeys is every key ParsePlan owns, as listed in the package doc.
var planKeys = []string{
	"seed", "transient", "burst", "permanent", "spike", "spike_ms", "disable",
	"reset_ms", "slow_ms", "slow_from_ms", "slow_until_ms",
	"flood_n", "flood_ms", "flood_gap_ms",
}

// TestPlanKeysAreOwned keeps planKeys in step with the parser: an owned key
// rejects a value that is not a number with an error naming the value,
// where a key the plan does not own is rejected by name. The unowned keys
// include the scenario key model and keys for the whole-GPU and image-pull
// faults, which the serving rigs own in code.
func TestPlanKeysAreOwned(t *testing.T) {
	for _, k := range planKeys {
		if _, err := ParsePlan(k + "=x"); err == nil || strings.Contains(err.Error(), "unknown key") {
			t.Errorf("key %q: error %v; is it still a plan key?", k, err)
		}
	}
	for _, k := range []string{
		"model",
		"img_corrupt", "img_truncate", "img_kill",
		"gpu_kill_ms", "gpu_kill", "gpu_kill_rate", "gpu_kill_from_ms", "gpu_kill_until_ms",
		"degrade_factor", "degrade_transient", "degrade_from_ms", "degrade_until_ms", "degrade_gpu",
		"link_flap_from_ms", "link_flap_until_ms", "link_flap_gpu", "link_flap_stall_ms",
	} {
		if _, err := ParsePlan(k + "=x"); err == nil || !strings.Contains(err.Error(), `unknown key "`+k+`"`) {
			t.Errorf("unowned key %s=x: err %v, want an unknown-key error", k, err)
		}
	}
}

// TestEveryPlanFieldHasAKey keeps Plan and the spec grammar in step: each
// key, parsed with a nonzero value, sets exactly one Plan field, and each
// field is set by exactly one key.
func TestEveryPlanFieldHasAKey(t *testing.T) {
	setBy := make(map[string][]string)
	for _, k := range planKeys {
		p, err := ParsePlan(k + "=1")
		if err != nil {
			t.Fatalf("ParsePlan(%s=1): %v", k, err)
		}
		v := reflect.ValueOf(p)
		var changed []string
		for i := range v.NumField() {
			if !v.Field(i).IsZero() {
				name := v.Type().Field(i).Name
				changed = append(changed, name)
				setBy[name] = append(setBy[name], k)
			}
		}
		if len(changed) != 1 {
			t.Errorf("key %s sets fields %v, want exactly one", k, changed)
		}
	}
	typ := reflect.TypeOf(Plan{})
	for i := range typ.NumField() {
		if name := typ.Field(i).Name; len(setBy[name]) != 1 {
			t.Errorf("Plan.%s is set by keys %v, want exactly one", name, setBy[name])
		}
	}
}

// checkPlan asserts the ranges every accepted plan must satisfy. It walks
// the fields by type, so a field added to Plan is covered without edits
// here: a time.Duration must be non-negative, a float64 a rate in [0,1]
// and an int non-negative.
func checkPlan(t *testing.T, spec string, p Plan) {
	t.Helper()
	v := reflect.ValueOf(p)
	for i := range v.NumField() {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case f.Type() == reflect.TypeOf(time.Duration(0)):
			if f.Int() < 0 {
				t.Fatalf("%q: %s = %v is negative", spec, name, time.Duration(f.Int()))
			}
		case f.Kind() == reflect.Float64:
			if x := f.Float(); !(x >= 0 && x <= 1) {
				t.Fatalf("%q: %s = %v is not a rate in [0,1]", spec, name, x)
			}
		case f.Kind() == reflect.Int:
			if f.Int() < 0 {
				t.Fatalf("%q: %s = %d is negative", spec, name, f.Int())
			}
		}
	}
}

// FuzzParsePlan asserts ParsePlan never panics, that every plan it accepts
// is in range, and that every key of an accepted spec is a plan key.
func FuzzParsePlan(f *testing.F) {
	for _, spec := range []string{
		"transient=0.1,permanent=0.02,seed=7,burst=2,spike=0.05,spike_ms=3,reset_ms=40,disable=0.1," +
			"slow_ms=1,slow_from_ms=10,slow_until_ms=30,flood_n=20,flood_ms=5,flood_gap_ms=0.1",
		"gpu_kill_ms=25,gpu_kill=2,gpu_kill_rate=0.3,gpu_kill_from_ms=10,gpu_kill_until_ms=60," +
			"degrade_factor=3,degrade_transient=0.2,degrade_from_ms=5,degrade_until_ms=40,degrade_gpu=1," +
			"link_flap_from_ms=1,link_flap_until_ms=9,link_flap_gpu=0,link_flap_stall_ms=0.5",
		"transient=0.1,model=res,requests=50",
		"transient=NaN", "spike=+Inf", "spike_ms=NaN", "slow_ms=Inf", "reset_ms=1e300",
		"degrade_factor=NaN", "reset_ms=9223372036854", "=1,,junk", "",
	} {
		f.Add(spec)
	}
	owned := make(map[string]bool, len(planKeys))
	for _, k := range planKeys {
		owned[k] = true
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		checkPlan(t, spec, p)
		for _, part := range strings.Split(spec, ",") {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
			key, _, _ := strings.Cut(part, "=")
			if k := strings.TrimSpace(key); !owned[k] {
				t.Fatalf("%q: accepted key %q is not a plan key", spec, k)
			}
		}
	})
}
