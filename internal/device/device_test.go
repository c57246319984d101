package device

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"pask/internal/kernels"
	"pask/internal/sim"
)

func testProfile() Profile {
	return Profile{
		Name: "test", Arch: "t1",
		PeakFlops: 1e12, MemBW: 1e11, PCIeBW: 1e10,
		LaunchLatency: 10 * time.Microsecond, KernelOverhead: 5 * time.Microsecond,
		ModuleLoadFixed: time.Millisecond, ModuleLoadBW: 1e8,
		SymbolResolve: 100 * time.Microsecond, ContextInit: 100 * time.Millisecond,
		CodeMemory: 1 << 20,
	}
}

func TestKernelTimeRoofline(t *testing.T) {
	p := testProfile()
	// Compute bound: 1e9 flops at 1e12 flop/s = 1ms; bytes negligible.
	d := p.KernelTime(kernels.Workload{Flops: 1e9, Bytes: 1}, 1)
	if want := p.KernelOverhead + time.Millisecond; d != want {
		t.Fatalf("compute-bound = %v, want %v", d, want)
	}
	// Memory bound: 1e9 bytes at 1e11 B/s = 10ms dominates 1ms compute.
	d = p.KernelTime(kernels.Workload{Flops: 1e9, Bytes: 1e9}, 1)
	if want := p.KernelOverhead + 10*time.Millisecond; d != want {
		t.Fatalf("memory-bound = %v, want %v", d, want)
	}
	// Efficiency scales both.
	d = p.KernelTime(kernels.Workload{Flops: 1e9, Bytes: 1}, 0.5)
	if want := p.KernelOverhead + 2*time.Millisecond; d != want {
		t.Fatalf("half-efficiency = %v, want %v", d, want)
	}
}

func TestKernelTimePanicsOnBadEfficiency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	testProfile().KernelTime(kernels.Workload{Flops: 1}, 0)
}

func TestLoadTime(t *testing.T) {
	p := testProfile()
	// 1e6 bytes at 1e8 B/s = 10ms, plus fixed 1ms, plus 3 symbols * 100us.
	d := p.LoadTime(1e6, 3)
	want := time.Millisecond + 10*time.Millisecond + 300*time.Microsecond
	if d != want {
		t.Fatalf("LoadTime = %v, want %v", d, want)
	}
}

func TestCopyTime(t *testing.T) {
	p := testProfile()
	if d := p.CopyTime(1e9); d != 100*time.Millisecond {
		t.Fatalf("CopyTime = %v", d)
	}
}

func TestStreamInOrderExecution(t *testing.T) {
	env := sim.NewEnv()
	g := NewGPU(env, testProfile())
	var order []string
	g.OnKernel = func(name string, start, end time.Duration) {
		order = append(order, name)
	}
	env.Spawn("host", func(p *sim.Proc) {
		g.DefaultStream().Launch(p, "k1", time.Millisecond)
		g.DefaultStream().Launch(p, "k2", time.Millisecond)
		done := g.DefaultStream().Launch(p, "k3", time.Millisecond)
		done.Wait(p)
		g.CloseAll()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "k1" || order[2] != "k3" {
		t.Fatalf("order = %v", order)
	}
}

func TestStreamAsyncLaunchReturnsBeforeCompletion(t *testing.T) {
	env := sim.NewEnv()
	g := NewGPU(env, testProfile())
	var launchReturned, kernelDone time.Duration
	env.Spawn("host", func(p *sim.Proc) {
		done := g.DefaultStream().Launch(p, "slow", 50*time.Millisecond)
		launchReturned = p.Now()
		done.Wait(p)
		kernelDone = p.Now()
		g.CloseAll()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if launchReturned != testProfile().LaunchLatency {
		t.Fatalf("launch returned at %v, want %v", launchReturned, testProfile().LaunchLatency)
	}
	if kernelDone != testProfile().LaunchLatency+50*time.Millisecond {
		t.Fatalf("kernel done at %v", kernelDone)
	}
}

func TestBusyTimeSingleStream(t *testing.T) {
	env := sim.NewEnv()
	g := NewGPU(env, testProfile())
	var ran []string
	g.OnKernel = func(name string, _, _ time.Duration) { ran = append(ran, name) }
	env.Spawn("host", func(p *sim.Proc) {
		g.DefaultStream().Launch(p, "a", 10*time.Millisecond)
		g.DefaultStream().Synchronize(p)
		p.Sleep(30 * time.Millisecond) // idle gap
		g.DefaultStream().Launch(p, "b", 5*time.Millisecond)
		g.DefaultStream().Synchronize(p)
		g.CloseAll()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if g.BusyTime() != 15*time.Millisecond {
		t.Fatalf("BusyTime = %v, want 15ms", g.BusyTime())
	}
	if !reflect.DeepEqual(ran, []string{"a", "b"}) {
		t.Fatalf("kernels run = %v, want [a b]", ran)
	}
}

func TestBusyTimeUnionAcrossStreams(t *testing.T) {
	env := sim.NewEnv()
	g := NewGPU(env, testProfile())
	s2 := g.NewStream()
	env.Spawn("h1", func(p *sim.Proc) {
		g.DefaultStream().Launch(p, "a", 20*time.Millisecond)
		g.DefaultStream().Synchronize(p)
	})
	env.Spawn("h2", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		s2.Launch(p, "b", 20*time.Millisecond)
		s2.Synchronize(p)
		g.CloseAll()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Overlapping [0,20] and [~10,~30]: union is ~30ms, not 40ms.
	got := g.BusyTime()
	if got < 29*time.Millisecond || got > 31*time.Millisecond {
		t.Fatalf("BusyTime = %v, want ~30ms (union, not sum)", got)
	}
}

func TestSynchronizeWaitsForAllPriorWork(t *testing.T) {
	env := sim.NewEnv()
	g := NewGPU(env, testProfile())
	var syncAt time.Duration
	env.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			g.DefaultStream().Launch(p, "k", 2*time.Millisecond)
		}
		g.DefaultStream().Synchronize(p)
		syncAt = p.Now()
		g.CloseAll()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	wantMin := 10 * time.Millisecond
	if syncAt < wantMin {
		t.Fatalf("sync returned at %v, want >= %v", syncAt, wantMin)
	}
}

func TestCopyUsesPCIeBandwidth(t *testing.T) {
	env := sim.NewEnv()
	g := NewGPU(env, testProfile())
	var done time.Duration
	env.Spawn("host", func(p *sim.Proc) {
		g.DefaultStream().Copy(p, "h2d", 1e9).Wait(p)
		done = p.Now()
		g.CloseAll()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := testProfile().LaunchLatency + 100*time.Millisecond
	if done != want {
		t.Fatalf("copy done at %v, want %v", done, want)
	}
}

func TestBuiltinProfiles(t *testing.T) {
	ps := Profiles()
	if len(ps) != 3 {
		t.Fatalf("Profiles() returned %d entries", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
		if p.PeakFlops <= 0 || p.MemBW <= 0 || p.ModuleLoadBW <= 0 {
			t.Errorf("%s has non-positive rates", p.Name)
		}
		if p.ModuleLoadFixed <= 0 || p.ContextInit <= 0 {
			t.Errorf("%s has non-positive fixed costs", p.Name)
		}
		got, ok := ProfileByName(p.Name)
		if !ok || got.Arch != p.Arch {
			t.Errorf("ProfileByName(%q) = %+v, %v", p.Name, got, ok)
		}
	}
	for _, want := range []string{"MI100", "A100", "6900XT"} {
		if !names[want] {
			t.Errorf("missing profile %s", want)
		}
	}
	if _, ok := ProfileByName("H100"); ok {
		t.Error("unknown profile should not resolve")
	}
}

func TestDefaultHostProfilePositive(t *testing.T) {
	h := DefaultHost()
	if h.ParseInstr <= 0 || h.ApplicabilityCheck <= 0 || h.ModelOpen <= 0 ||
		h.CacheQueryFixed <= 0 || h.SyncOverhead <= 0 {
		t.Fatalf("host profile has non-positive fields: %+v", h)
	}
	// The paper's premise: one applicability check is far cheaper than one
	// module load but expensive enough that exhaustive scans hurt.
	if h.ApplicabilityCheck >= MI100().ModuleLoadFixed {
		t.Fatal("applicability check should be much cheaper than a module load")
	}
}

// Property: KernelTime is monotonic in both flops and bytes.
func TestKernelTimeMonotonicProperty(t *testing.T) {
	p := testProfile()
	f := func(f1, f2, b1, b2 uint32) bool {
		w1 := kernels.Workload{Flops: int64(f1), Bytes: int64(b1)}
		w2 := kernels.Workload{Flops: int64(f1) + int64(f2), Bytes: int64(b1) + int64(b2)}
		return p.KernelTime(w2, 0.7) >= p.KernelTime(w1, 0.7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: LoadTime is monotonic in size and symbols and always at least
// the fixed cost.
func TestLoadTimeMonotonicProperty(t *testing.T) {
	p := testProfile()
	f := func(s1, s2 uint32, n1, n2 uint8) bool {
		a := p.LoadTime(int64(s1), int(n1))
		b := p.LoadTime(int64(s1)+int64(s2), int(n1)+int(n2))
		return b >= a && a >= p.ModuleLoadFixed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A panicking OnKernel ends Run with the stream's *sim.PanicError, whether
// the stream's step runs while the host yields or after the host exits.
func TestStreamPanicInOnKernel(t *testing.T) {
	for name, host := range map[string]func(p *sim.Proc, s *Stream){
		"yield": func(p *sim.Proc, s *Stream) {
			s.Launch(p, "k", time.Millisecond)
			p.Sleep(time.Second)
		},
		"exit": func(p *sim.Proc, s *Stream) { s.Launch(p, "k", time.Millisecond) },
	} {
		env := sim.NewEnv()
		g := NewGPU(env, testProfile())
		s := g.NewStream()
		g.OnKernel = func(string, time.Duration, time.Duration) { panic("observer failed") }
		env.Spawn("host", func(p *sim.Proc) { host(p, s) })
		var pe *sim.PanicError
		if err := env.Run(); !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want *sim.PanicError", name, err)
		}
		if pe.Proc != "gpu-stream-1" || pe.Value != "observer failed" {
			t.Fatalf("%s: PanicError = {Proc: %q, Value: %v}", name, pe.Proc, pe.Value)
		}
	}
}

// Streams are handlers: making a hundred starts no goroutine, and once
// closed they leave the environment, so Run reports no blocked process.
func TestStreamsStartNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	env := sim.NewEnv()
	h := NewHost(env)
	g := h.GPU(h.AddGPU(testProfile(), 0))
	for i := 0; i < 100; i++ {
		g.NewStream()
	}
	// Goroutines other tests left behind may still be exiting, so the count
	// can fall; a goroutine per stream would raise it by 100.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after 100 streams", before, after)
	}
	h.CloseAll()
	if err := env.Run(); err != nil {
		t.Fatalf("Run after CloseAll: %v", err)
	}
}
