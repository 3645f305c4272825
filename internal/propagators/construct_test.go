package propagators

import (
	"testing"

	"devigo/internal/core"
)

// TestConstructAllocsPinned bounds the heap allocations of one serial
// Build + NewOperator of the heaviest stencil the propagators build (TTI,
// so-16). Construction is not on any stepping workload's clock, so a
// compiler pass that starts allocating per derivative node (re-solving FD
// weights, say) would otherwise only show as a slower construct round.
// The bound is 1.3x the 19,482 measured once the symbolic passes keyed
// subtrees by keys composed bottom-up and shared coefficients instead of
// copying them; rendering a subtree's key per node (and per sort
// comparison) made 189,860, and solving FD weights for every derivative
// node 2.26 M.
func TestConstructAllocsPinned(t *testing.T) {
	const maxAllocs = 25_300
	allocs := testing.AllocsPerRun(2, func() {
		m, err := Build("tti", Config{Shape: []int{64, 64}, SpaceOrder: 16, Velocity: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, &core.Options{Name: m.Name})
		if err != nil {
			t.Fatal(err)
		}
		op.Close()
	})
	t.Logf("tti so-16 64x64 Build + NewOperator: %.0f allocations", allocs)
	if allocs > maxAllocs {
		t.Errorf("tti so-16 64x64 Build + NewOperator allocates %.0f times, want <= %d", allocs, maxAllocs)
	}
}
