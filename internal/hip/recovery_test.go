package hip

import (
	"errors"
	"testing"
	"time"

	"pask/internal/backend"
	"pask/internal/backend/conformancetest"
	"pask/internal/codeobj"
	"pask/internal/sim"
)

// flakyStore fails the first n reads of each path with a transient error.
type flakyStore struct {
	conformancetest.NoFaults
	failsLeft map[string]int
}

func (h *flakyStore) StoreGet(path string, data []byte) ([]byte, error) {
	if h.failsLeft[path] > 0 {
		h.failsLeft[path]--
		return nil, codeobj.ErrIO
	}
	return data, nil
}

// corruptStore serves damaged copies of one path forever.
type corruptStore struct {
	conformancetest.NoFaults
	path string
}

func (h *corruptStore) StoreGet(path string, data []byte) ([]byte, error) {
	if path != h.path {
		return data, nil
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	cp[len(cp)/2] ^= 0xff
	return cp, nil
}

// spikeOnce injects one latency spike on the first load of each path.
type spikeOnce struct {
	conformancetest.NoFaults
	extra time.Duration
	seen  map[string]bool
}

func (h *spikeOnce) ExtraLoadLatency(_ time.Duration, path string) time.Duration {
	if h.seen == nil {
		h.seen = make(map[string]bool)
	}
	if h.seen[path] {
		return 0
	}
	h.seen[path] = true
	return h.extra
}

func TestModuleLoadRetriesTransientErrors(t *testing.T) {
	env, rt := newTestRuntime(t)
	rt.SetFaults(&flakyStore{failsLeft: map[string]int{"conv_a.pko": 2}})
	runHost(t, env, rt, func(p *sim.Proc) {
		m, err := rt.ModuleLoad(p, "conv_a.pko")
		if err != nil {
			t.Errorf("load after transient faults: %v", err)
			return
		}
		if m == nil || m.Path != "conv_a.pko" {
			t.Errorf("module = %+v", m)
		}
	})
	st := rt.Stats()
	if st.TransientRetries != 2 {
		t.Errorf("TransientRetries = %d, want 2", st.TransientRetries)
	}
	if st.ModuleLoads != 1 || st.FailedLoads != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestModuleLoadExhaustedRetriesNotNegativelyCached(t *testing.T) {
	env, rt := newTestRuntime(t)
	// More consecutive failures than the default 3 retries allow.
	rt.SetFaults(&flakyStore{failsLeft: map[string]int{"conv_a.pko": 10}})
	runHost(t, env, rt, func(p *sim.Proc) {
		if _, err := rt.ModuleLoad(p, "conv_a.pko"); !backend.IsTransient(err) {
			t.Errorf("exhausted-retry error = %v, want transient", err)
		}
		if rt.FailedPermanently("conv_a.pko") {
			t.Error("transient failure was negatively cached")
		}
		// 10 - 4 attempts = 6 failures left; the next call's 4 attempts clear
		// 4 more, the one after succeeds on its 3rd attempt.
		if _, err := rt.ModuleLoad(p, "conv_a.pko"); !backend.IsTransient(err) {
			t.Errorf("second call error = %v, want transient", err)
		}
		if m, err := rt.ModuleLoad(p, "conv_a.pko"); err != nil || m == nil {
			t.Errorf("third call should recover, got %v", err)
		}
	})
	if st := rt.Stats(); st.NegativeHits != 0 {
		t.Errorf("NegativeHits = %d, want 0", st.NegativeHits)
	}
}

func TestPermanentFailureNegativelyCached(t *testing.T) {
	env, rt := newTestRuntime(t)
	rt.SetFaults(&corruptStore{path: "conv_a.pko"})
	var firstErr, secondErr error
	var secondCost time.Duration
	runHost(t, env, rt, func(p *sim.Proc) {
		_, firstErr = rt.ModuleLoad(p, "conv_a.pko")
		start := p.Now()
		_, secondErr = rt.ModuleLoad(p, "conv_a.pko")
		secondCost = p.Now() - start
	})
	if firstErr == nil || !errors.Is(firstErr, codeobj.ErrChecksum) {
		t.Fatalf("first error = %v, want checksum failure", firstErr)
	}
	if secondErr != firstErr {
		t.Errorf("second error = %v, want cached %v", secondErr, firstErr)
	}
	if secondCost != 0 {
		t.Errorf("negative-cache hit cost %v, want 0", secondCost)
	}
	st := rt.Stats()
	if st.PermanentFailures != 1 || st.NegativeHits != 1 || st.FailedLoads != 1 {
		t.Errorf("stats = %+v", st)
	}
	if !rt.FailedPermanently("conv_a.pko") {
		t.Error("FailedPermanently = false")
	}
}

func TestForgetFailureAllowsRepair(t *testing.T) {
	env, rt := newTestRuntime(t)
	hook := &corruptStore{path: "conv_a.pko"}
	rt.SetFaults(hook)
	runHost(t, env, rt, func(p *sim.Proc) {
		if _, err := rt.ModuleLoad(p, "conv_a.pko"); err == nil {
			t.Error("corrupt load unexpectedly succeeded")
		}
		// Repair the object, then clear the negative entry.
		rt.SetFaults(nil)
		if !rt.ForgetFailure("conv_a.pko") {
			t.Error("ForgetFailure found no entry")
		}
		if rt.ForgetFailure("conv_a.pko") {
			t.Error("ForgetFailure deleted twice")
		}
		if _, err := rt.ModuleLoad(p, "conv_a.pko"); err != nil {
			t.Errorf("load after repair: %v", err)
		}
	})
}

func TestTransientRetryCostsBackoffTime(t *testing.T) {
	env, rt := newTestRuntime(t)
	rt.SetRetry(backend.RetryPolicy{MaxRetries: 1, Backoff: 300 * time.Microsecond})
	rt.SetFaults(&flakyStore{failsLeft: map[string]int{"conv_b.pko": 1}})
	var elapsed time.Duration
	runHost(t, env, rt, func(p *sim.Proc) {
		start := p.Now()
		if _, err := rt.ModuleLoad(p, "conv_b.pko"); err != nil {
			t.Error(err)
			return
		}
		elapsed = p.Now() - start
	})
	prof := testProfile()
	size := int64(rt.Store().Size("conv_b.pko"))
	want := prof.ModuleLoadFixed + // failed attempt
		300*time.Microsecond + // backoff
		prof.LoadTime(size, 1) // successful attempt
	if elapsed != want {
		t.Errorf("elapsed = %v, want %v", elapsed, want)
	}
}

func TestRetryDisabled(t *testing.T) {
	env, rt := newTestRuntime(t)
	rt.SetRetry(backend.RetryPolicy{MaxRetries: -1})
	rt.SetFaults(&flakyStore{failsLeft: map[string]int{"conv_a.pko": 1}})
	runHost(t, env, rt, func(p *sim.Proc) {
		if _, err := rt.ModuleLoad(p, "conv_a.pko"); !backend.IsTransient(err) {
			t.Errorf("error = %v, want transient failure with retry disabled", err)
		}
	})
	if st := rt.Stats(); st.TransientRetries != 0 {
		t.Errorf("TransientRetries = %d, want 0", st.TransientRetries)
	}
}

func TestLatencySpikeCharged(t *testing.T) {
	env, rt := newTestRuntime(t)
	const extra = 5 * time.Millisecond
	rt.SetFaults(&spikeOnce{extra: extra})
	var first, second time.Duration
	runHost(t, env, rt, func(p *sim.Proc) {
		start := p.Now()
		if _, err := rt.ModuleLoad(p, "conv_a.pko"); err != nil {
			t.Error(err)
			return
		}
		first = p.Now() - start
		rt.Unload("conv_a.pko")
		start = p.Now()
		if _, err := rt.ModuleLoad(p, "conv_a.pko"); err != nil {
			t.Error(err)
			return
		}
		second = p.Now() - start
	})
	if first-second != extra {
		t.Errorf("spiked load %v vs clean load %v: delta %v, want %v", first, second, first-second, extra)
	}
}

func TestRegisterResidentRetriesTransient(t *testing.T) {
	env, rt := newTestRuntime(t)
	rt.SetFaults(&flakyStore{failsLeft: map[string]int{"conv_a.pko": 2}})
	runHost(t, env, rt, func(p *sim.Proc) {
		if _, err := rt.RegisterResident(p, "conv_a.pko"); err != nil {
			t.Errorf("RegisterResident after transient faults: %v", err)
		}
	})
	if st := rt.Stats(); st.TransientRetries != 2 {
		t.Errorf("TransientRetries = %d, want 2", st.TransientRetries)
	}
}

func TestDeviceResetKeepsNegativeCache(t *testing.T) {
	env, rt := newTestRuntime(t)
	rt.SetFaults(&corruptStore{path: "conv_a.pko"})
	runHost(t, env, rt, func(p *sim.Proc) {
		if _, err := rt.ModuleLoad(p, "conv_a.pko"); err == nil {
			t.Error("corrupt load unexpectedly succeeded")
		}
		rt.UnloadAll()
		// A reset clears modules, not the on-disk corruption.
		if !rt.FailedPermanently("conv_a.pko") {
			t.Error("reset dropped the negative cache")
		}
	})
}
