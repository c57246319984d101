package backend

import (
	"errors"
	"testing"
	"time"

	"pask/internal/codeobj"
	"pask/internal/sim"
)

// staticPeer offers one resident object at a fixed cost, optionally marked
// link-faulted (err) — the smallest PeerSource that exercises the
// registry's fallback path without a multi-GPU host.
type staticPeer struct {
	path string
	obj  *codeobj.Object
	cost time.Duration
	err  error

	lookups int
}

func (s *staticPeer) PeerLookup(path string) (PeerModule, bool) {
	if path != s.path {
		return PeerModule{}, false
	}
	s.lookups++
	return PeerModule{Object: s.obj, Cost: s.cost, Err: s.err}, true
}

// A peer transfer that dies mid-flap must fall back to a local demand load
// exactly once: one ModuleLoads, zero PeerFetches, one
// PeerFetchFails, and the module ends up resident anyway.
func TestPeerFetchFaultFallsBackToLocalLoadOnce(t *testing.T) {
	store := benchStore(t, 1, 8<<10)
	env, gpu, rt := benchRuntime(store, 0)
	path := benchPath(0)
	data, err := store.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := codeobj.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	peer := &staticPeer{path: path, obj: obj, err: errors.New("link down")}
	rt.SetPeers(peer)

	env.Spawn("host", func(p *sim.Proc) {
		defer gpu.CloseAll()
		m, lerr := rt.ModuleLoad(p, path)
		if lerr != nil {
			t.Errorf("fallback load failed: %v", lerr)
			return
		}
		if m == nil || m.Path != path {
			t.Errorf("module = %+v", m)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}

	st := rt.Stats()
	if st.PeerFetchFails != 1 {
		t.Errorf("PeerFetchFails = %d, want 1", st.PeerFetchFails)
	}
	if st.PeerFetches != 0 || st.PeerBytes != 0 {
		t.Errorf("failed transfer counted as a peer fetch: %+v", st)
	}
	if st.ModuleLoads != 1 || st.FailedLoads != 0 {
		t.Errorf("fallback must be exactly one local load: %+v", st)
	}
	if peer.lookups != 1 {
		t.Errorf("peer consulted %d times, want 1", peer.lookups)
	}
	if !rt.Loaded(path) {
		t.Error("module not resident after fallback")
	}
}
