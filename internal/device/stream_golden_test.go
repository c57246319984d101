package device

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"reflect"
	"testing"
	"time"

	"pask/internal/kernels"
	"pask/internal/sim"
)

// streamOrderGolden is the SHA-256 of streamScenario's trace: every dispatch
// (time, process, queue length), every kernel (GPU, name, start, end) and
// each GPU's final BusyTime and kernel count. Any change to when a stream
// runs, or to what the calendar holds when it does, changes it.
const streamOrderGolden = "1beec10b5aaf4ed7493225c036245bb3d0ec0221b1867462c86168614ee8a85e"

// streamScenario drives two streams of one GPU plus a second GPU through
// every submission kind, a host blocked on a full queue, and both ways a
// stream can be closed. With closeStreams false the streams are never
// closed and Run's error is returned as is. flooded is the time the flooding
// host's last launch was accepted.
func streamScenario(h hash.Hash, closeStreams bool) (flooded time.Duration, err error) {
	env := sim.NewEnv()
	env.OnDispatch = func(at time.Duration, proc string, queueLen int) {
		fmt.Fprintf(h, "d %d %s %d\n", at, proc, queueLen)
	}
	g0 := NewGPU(env, testProfile())
	s1 := g0.NewStream()
	g1 := NewGPU(env, testProfile())
	var ran [2]int
	longDone := false // k-long ran, so its signal fired
	for i, g := range []*GPU{g0, g1} {
		g.OnKernel = func(name string, start, end time.Duration) {
			fmt.Fprintf(h, "k %d %s %d %d\n", i, name, start, end)
			ran[i]++
			longDone = longDone || name == "k-long"
		}
	}
	const queueCap = 1 << 14

	// Every submission kind on one stream, including zero-duration items.
	env.Spawn("host-mixed", func(p *sim.Proc) {
		s := g0.DefaultStream()
		s.Launch(p, "k-a", 30*time.Microsecond)
		s.LaunchWorkload(p, "k-w", kernels.Workload{Flops: 2e7, Bytes: 1e6}, 0.8)
		s.Copy(p, "h2d", 1e5)
		s.Launch(p, "k-zero", 0)
		s.Copy(p, "d2h-empty", 0)
		s.Synchronize(p)
		for i := 0; i < 6; i++ {
			s.Launch(p, fmt.Sprintf("k-%d", i), time.Duration(i%3)*20*time.Microsecond)
			if i%2 == 1 {
				p.Sleep(15 * time.Microsecond)
			}
		}
		s.Synchronize(p)
		// Close with work still queued: the stream drains it first.
		s.Launch(p, "k-tail-0", 40*time.Microsecond)
		s.Launch(p, "k-tail-1", 40*time.Microsecond)
		if closeStreams {
			s.Close()
		}
	})
	// A host that fills the second stream's queue and blocks until it drains.
	env.Spawn("host-flood", func(p *sim.Proc) {
		s1.Launch(p, "k-long", time.Second)
		for i := 0; i < queueCap+3; i++ {
			s1.Launch(p, "k-flood", time.Microsecond)
		}
		flooded = p.Now()
		fmt.Fprintf(h, "flood-submitted %d first-fired %v\n", p.Now(), longDone)
		s1.Synchronize(p)
		fmt.Fprintf(h, "flood-drained %d\n", p.Now())
		if closeStreams {
			s1.Close()
		}
	})
	// The second GPU: work, an idle gap, then Close while idle.
	env.Spawn("host-gpu1", func(p *sim.Proc) {
		s := g1.DefaultStream()
		s.Launch(p, "g1-a", 25*time.Microsecond)
		p.Sleep(5 * time.Microsecond)
		s.Launch(p, "g1-b", 25*time.Microsecond).Wait(p)
		p.Sleep(100 * time.Microsecond)
		s.Synchronize(p)
		if closeStreams {
			s.Close()
		}
	})
	err = env.Run()
	for i, g := range []*GPU{g0, g1} {
		fmt.Fprintf(h, "gpu %d busy %d kernels %d\n", i, g.BusyTime(), ran[i])
	}
	fmt.Fprintf(h, "end %d\n", env.Now())
	return flooded, err
}

func TestStreamOrderGolden(t *testing.T) {
	h := sha256.New()
	flooded, err := streamScenario(h, true)
	if err != nil {
		t.Fatal(err)
	}
	// The flood's last launch waits for the 1s kernel to free a slot.
	if flooded <= time.Second {
		t.Fatalf("flood accepted at %v: the full queue never blocked the host", flooded)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != streamOrderGolden {
		t.Fatalf("stream order hash = %s, want %s", got, streamOrderGolden)
	}
}

// Streams that are never closed stay blocked on their queues, and Run
// reports them by name.
func TestStreamNeverClosedDeadlocks(t *testing.T) {
	_, err := streamScenario(sha256.New(), false)
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *sim.DeadlockError", err)
	}
	want := []string{"gpu-stream-0", "gpu-stream-0", "gpu-stream-1"}
	if !reflect.DeepEqual(de.Blocked, want) {
		t.Fatalf("Blocked = %v, want %v", de.Blocked, want)
	}
	if de.At <= time.Second {
		t.Fatalf("deadlock at %v, want after the 1s kernel", de.At)
	}
}
