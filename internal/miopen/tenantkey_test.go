package miopen

import (
	"testing"

	"pask/internal/device"
	"pask/internal/kernels"
	"pask/internal/tensor"
)

// The per-GPU shared cache and cross-tenant module reuse both rest on one
// invariant: an Instance's identity (Key/Path) and its cache category
// (CacheKey) are functions of the solution and problem configuration only —
// no model name, registry identity or tenant leaks in. Two tenants serving
// different models that bind the same solution to the same configuration
// must produce byte-identical store paths and land in the same cache list.
func TestInstanceKeysAreModelIndependent(t *testing.T) {
	prob := NewConvProblem(tensor.Shape{N: 1, C: 64, H: 28, W: 28}, 64, 3, 3,
		kernels.Conv2DParams{StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1},
		1, tensor.F32, tensor.NCHW)

	// Two registries standing in for two tenants' model stacks.
	regA := NewRegistry(NewCtx(device.MI100()))
	regB := NewRegistry(NewCtx(device.MI100()))

	for _, id := range []string{"ConvWinogradNaiveFwd", "ConvBinWinogradRxSFwd", "ConvBinWinogradFwdFixed"} {
		solA, okA := regA.ByID(id)
		solB, okB := regB.ByID(id)
		if !okA || !okB {
			t.Fatalf("solution %s missing from a registry", id)
		}
		instA := Bind(solA, &prob)
		instB := Bind(solB, &prob)
		if instA.Path() != instB.Path() {
			t.Errorf("%s: keys differ across registries: %q vs %q", id, instA.Path(), instB.Path())
		}
		if instA.Path() != instB.Path() {
			t.Errorf("%s: store paths differ across registries: %q vs %q", id, instA.Path(), instB.Path())
		}
		if instA.CacheKey() != instB.CacheKey() {
			t.Errorf("%s: cache keys differ across registries: %q vs %q", id, instA.CacheKey(), instB.CacheKey())
		}
	}
}
