package hip

import (
	"testing"

	"pask/internal/backend/conformancetest"
)

// The HIP runtime must satisfy every invariant of the shared backend
// contract (DESIGN.md §15).
func TestBackendConformance(t *testing.T) {
	conformancetest.Run(t, NewRuntime)
}
