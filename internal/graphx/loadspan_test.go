package graphx

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pask/internal/blas"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/metrics"
	"pask/internal/miopen"
	"pask/internal/sim"
)

// TestLoadSpanAttributesNeedObserver checks the runner's load hook. With an
// observer attached, a load span carries its module's bytes on success and
// the error on failure. Without one, the hook records busy time and
// allocates nothing.
func TestLoadSpanAttributesNeedObserver(t *testing.T) {
	reg := miopen.NewRegistry(miopen.NewCtx(device.MI100()))
	inst := reg.Residents()[0]
	store := codeobj.NewStore()
	objs := store.Batch()
	miopen.MaterializeObjects(objs, reg.Ctx().Dev.Arch, []miopen.Instance{inst})
	if err := objs.Put(); err != nil {
		t.Fatal(err)
	}
	const missing = "missing.pko"

	env, runner, rec := newProcess(t, &setup{reg: reg, breg: blas.NewRegistry(device.MI100()), store: store})
	var loadErr error
	env.Spawn("host", func(p *sim.Proc) {
		defer runner.RT.GPU().CloseAll()
		if _, err := runner.RT.ModuleLoad(p, inst.Path()); err != nil {
			t.Error(err)
		}
		_, loadErr = runner.RT.ModuleLoad(p, missing)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if loadErr == nil {
		t.Fatal("loading a missing object succeeded")
	}
	want := map[string]metrics.Attr{
		inst.Path(): {Key: "bytes", Value: fmt.Sprint(runner.RT.ModuleBytes(inst.Path()))},
		missing:     {Key: "error", Value: loadErr.Error()},
	}
	for _, s := range rec.Spans() {
		if s.Cat != metrics.CatLoad {
			continue
		}
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected load span %q", s.Name)
			continue
		}
		delete(want, s.Name)
		if s.Thread != "loader" || len(s.Attrs) != 1 || s.Attrs[0] != w {
			t.Errorf("load span %q on %q has attributes %v, want [%v] on loader", s.Name, s.Thread, s.Attrs, w)
		}
	}
	for name := range want {
		t.Errorf("no load span for %q", name)
	}

	fail := errors.New("load failed")
	for _, tc := range []struct {
		name     string
		tr       *metrics.Tracer
		keepBusy bool
	}{
		{"zero", &metrics.Tracer{}, true},
		{"forwarding", metrics.NewForwardingTracer(), false},
	} {
		runner.Tracer = tc.tr
		// Back-to-back loads extend the category's last interval once the
		// first has made room.
		at := time.Millisecond
		runner.recordLoad(inst.Path(), 0, at, nil)
		if n := testing.AllocsPerRun(100, func() {
			runner.recordLoad(inst.Path(), at, at+time.Millisecond, nil)
			runner.recordLoad(missing, at+time.Millisecond, at+2*time.Millisecond, fail)
			at += 2 * time.Millisecond
		}); n != 0 {
			t.Errorf("%s: load hook with no observer allocated %v times", tc.name, n)
		}
		want := time.Duration(0)
		if tc.keepBusy {
			want = at
		}
		if got := tc.tr.Breakdown(0, at, metrics.DefaultPriority())[metrics.CatLoad]; got != want {
			t.Errorf("%s: load busy time = %v, want %v", tc.name, got, want)
		}
	}
}
