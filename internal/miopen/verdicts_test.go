package miopen

import (
	"slices"
	"sync"
	"testing"
	"time"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/sim"
)

// verdictCase is one applicability question and the answer IsApplicable
// gives it directly.
type verdictCase struct {
	inst Instance
	prob *Interned
	want bool
}

// verdictCases asks every instance ranked for one of several problems about
// every one of those problems, so both verdicts occur many times over.
func verdictCases(t testing.TB, reg *Registry) []verdictCase {
	t.Helper()
	probs := []Problem{conv3x3(64, 64, 28), conv3x3(128, 128, 14), conv3x3(64, 64, 56)}
	var cases []verdictCase
	seen := map[Instance]bool{}
	for i := range probs {
		for _, r := range reg.Find(&probs[i]) {
			if seen[r.Inst] {
				continue
			}
			seen[r.Inst] = true
			for j := range probs {
				cases = append(cases, verdictCase{inst: r.Inst, prob: reg.Intern(&probs[j]), want: r.Inst.IsApplicable(reg.Ctx(), &probs[j])})
			}
		}
	}
	var yes, no int
	for _, c := range cases {
		if c.want {
			yes++
		} else {
			no++
		}
	}
	if yes == 0 || no == 0 {
		t.Fatalf("cases: %d applicable, %d not; want both", yes, no)
	}
	return cases
}

// newCheckProcess is one process of reg's set-up: its own environment,
// runtime and Library. CheckApplicable needs no code objects.
func newCheckProcess(reg *Registry) (*sim.Env, *Library) {
	env := sim.NewEnv()
	gpu := device.NewGPU(env, device.MI100())
	return env, NewLibrary(reg, backend.New(env, gpu, device.DefaultHost(), codeobj.NewStore(), backend.HIP))
}

// checkAll runs CheckApplicable over cases, in order, in a process of lib's
// environment, and returns the verdicts. Every call, answered from the
// shared table or not, must charge one Host().ApplicabilityCheck.
func checkAll(t testing.TB, env *sim.Env, lib *Library, cases []verdictCase) []bool {
	got := make([]bool, len(cases))
	var took time.Duration
	env.Spawn("host", func(proc *sim.Proc) {
		defer lib.RT.GPU().CloseAll()
		for i := range cases {
			got[i] = lib.CheckApplicable(proc, cases[i].inst, cases[i].prob)
		}
		took = proc.Now()
	})
	if err := env.Run(); err != nil {
		t.Error(err)
	}
	if want := time.Duration(len(cases)) * lib.RT.Host().ApplicabilityCheck; took != want {
		t.Errorf("%d checks charged %v, want %v", len(cases), took, want)
	}
	return got
}

// verdictCount returns the number of verdicts the tables of reg's interned
// problems hold.
func verdictCount(reg *Registry) int {
	reg.internMu.Lock()
	defer reg.internMu.Unlock()
	n := 0
	for _, p := range reg.interned {
		if t := p.verdicts.Load(); t != nil {
			for i := range *t {
				for w := (*t)[i].Load(); w != 0; w >>= 2 {
					n += int(w & 1)
				}
			}
		}
	}
	return n
}

// TestApplicabilityVerdictsShared checks that the processes of one set-up
// share one verdict table: a second process gets the verdicts the first
// recorded, each still charges every check (checkAll asserts the time),
// per-process kill switches stay out of the table and set-ups with
// different workspace limits keep their own verdicts.
func TestApplicabilityVerdictsShared(t *testing.T) {
	t.Run("two processes", func(t *testing.T) {
		reg := NewRegistry(testCtx())
		cases := verdictCases(t, reg)
		for n := 0; n < 2; n++ {
			env, lib := newCheckProcess(reg)
			got := checkAll(t, env, lib, cases)
			for i, c := range cases {
				if got[i] != c.want {
					t.Errorf("process %d: %s on %s = %v, want %v", n, c.inst.Path(), c.prob.Key(), got[i], c.want)
				}
			}
			if v := verdictCount(reg); v != len(cases) {
				t.Errorf("after process %d: table holds %d verdicts, want %d", n, v, len(cases))
			}
		}
	})

	t.Run("disabled stays per process", func(t *testing.T) {
		reg := NewRegistry(testCtx())
		p := conv3x3(64, 64, 28)
		rxs, _ := reg.ByID("ConvBinWinogradRxSFwd")
		cases := []verdictCase{{inst: Bind(rxs, &p), prob: reg.Intern(&p), want: true}}

		env, off := newCheckProcess(reg)
		off.Disable(rxs.ID())
		if got := checkAll(t, env, off, cases); got[0] {
			t.Error("disabling process: RxS applicable")
		}
		if v := verdictCount(reg); v != 0 {
			t.Errorf("a disabled check left %d verdicts in the shared table, want 0", v)
		}

		env, on := newCheckProcess(reg)
		if got := checkAll(t, env, on, cases); !got[0] {
			t.Error("other process: RxS inapplicable after a sibling disabled it")
		}
		if v := verdictCount(reg); v != 1 {
			t.Errorf("table holds %d verdicts, want 1", v)
		}
	})

	t.Run("workspace limit", func(t *testing.T) {
		// Two set-ups whose contexts differ only in the limit: each keeps
		// its own verdicts, so neither sees the other's.
		p := conv3x3(64, 64, 56)
		for _, step := range []struct {
			limit int64
			want  bool
		}{{testCtx().wsLimit, true}, {1, false}} {
			ctx := testCtx()
			ctx.wsLimit = step.limit
			reg := NewRegistry(ctx)
			gemm, _ := reg.ByID("ConvGemmNaiveFwd")
			c := []verdictCase{{inst: Bind(gemm, &p), prob: reg.Intern(&p)}}
			for n := 0; n < 2; n++ {
				env, lib := newCheckProcess(reg)
				if got := checkAll(t, env, lib, c); got[0] != step.want {
					t.Errorf("limit %d, process %d: applicable = %v, want %v", step.limit, n, got[0], step.want)
				}
			}
			if v := verdictCount(reg); v != 1 {
				t.Errorf("limit %d: table holds %d verdicts, want 1", step.limit, v)
			}
		}
	})
}

// TestApplicabilityVerdictsConcurrent runs eight cold processes of one set-up
// at once, each in its own environment and order, as the HTTP service does.
// Run it under -race.
func TestApplicabilityVerdictsConcurrent(t *testing.T) {
	reg := NewRegistry(testCtx())
	cases := verdictCases(t, reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each process starts at a different case, so first checks of
			// one verdict race between processes.
			cut := g * len(cases) / 8
			order := append(slices.Clone(cases[cut:]), cases[:cut]...)
			env, lib := newCheckProcess(reg)
			got := checkAll(t, env, lib, order)
			for i, c := range order {
				if got[i] != c.want {
					t.Errorf("process %d: %s on %s = %v, want %v", g, c.inst.Path(), c.prob.Key(), got[i], c.want)
				}
			}
		}()
	}
	wg.Wait()
	if v := verdictCount(reg); v != len(cases) {
		t.Errorf("table holds %d verdicts, want %d", v, len(cases))
	}
}
