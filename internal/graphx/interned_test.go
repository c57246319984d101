package graphx

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"pask/internal/backend"
	"pask/internal/codeobj"
	"pask/internal/device"
	"pask/internal/miopen"
	"pask/internal/onnx/zoo"
	"pask/internal/sim"
)

// verdictPair is one applicability question a cold process may ask: an
// instance against a compiled instruction's interned problem.
type verdictPair struct {
	inst miopen.Instance
	prob *miopen.Interned
}

// verdictPairs compiles every zoo model against reg and pairs each
// model's distinct instruction problems with every resident and every
// instance its static plan selects.
func verdictPairs(t *testing.T, reg *miopen.Registry) []verdictPair {
	t.Helper()
	var pairs []verdictPair
	for _, spec := range zoo.Models() {
		m := compileZoo(t, spec.Abbr, 1, reg, CompileOptions{})
		insts := slices.Clone(reg.Residents())
		var probs []*miopen.Interned
		for _, in := range primitives(m) {
			inst, prob, err := in.Static(reg)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(insts, inst) {
				insts = append(insts, inst)
			}
			if !slices.Contains(probs, prob) {
				probs = append(probs, prob)
			}
		}
		for _, p := range probs {
			for _, inst := range insts {
				pairs = append(pairs, verdictPair{inst, p})
			}
		}
	}
	return pairs
}

// checkPairs asks every pair, starting at pairs[from] and wrapping, in a
// fresh process of reg's set-up, and reports each verdict that differs from
// IsApplicable under the registry's context.
func checkPairs(t *testing.T, reg *miopen.Registry, pairs []verdictPair, from int, who string) {
	env := sim.NewEnv()
	gpu := device.NewGPU(env, reg.Ctx().Dev)
	lib := miopen.NewLibrary(reg, backend.New(env, gpu, device.DefaultHost(), codeobj.NewStore(), backend.HIP))
	env.Spawn("host", func(p *sim.Proc) {
		defer gpu.CloseAll()
		for k := range pairs {
			c := pairs[(from+k)%len(pairs)]
			if got, want := lib.CheckApplicable(p, c.inst, c.prob), c.inst.IsApplicable(reg.Ctx(), &c.prob.Problem); got != want {
				t.Errorf("%s: %s on %s = %v, IsApplicable says %v", who, c.inst.Path(), c.prob.Key(), got, want)
				return
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Error(err)
	}
}

// TestInternedVerdictsMatchOracle runs concurrent cold processes of one
// set-up per device over every zoo model: each process asks every (resident
// or statically selected instance, instruction problem) pair in its own
// order, so first checks race between processes, and every verdict the
// shared tables give must equal IsApplicable. Run it under -race.
func TestInternedVerdictsMatchOracle(t *testing.T) {
	for _, dev := range []device.Profile{device.MI100(), device.A100(), device.RX6900XT()} {
		t.Run(dev.Name, func(t *testing.T) {
			reg := miopen.NewRegistry(miopen.NewCtx(dev))
			pairs := verdictPairs(t, reg)
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					checkPairs(t, reg, pairs, g*len(pairs)/3, fmt.Sprintf("process %d", g))
				}(g)
			}
			wg.Wait()
		})
	}
}
