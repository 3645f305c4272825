package symbolic_test

import (
	"fmt"
	"strings"
	"testing"

	"devigo/internal/propagators"
	"devigo/internal/symbolic"
)

// TestFDWeightsMemoInvisibleInExpansion expands the four propagators'
// equations with an empty FDWeights memo and again with a warm one: the
// memo may only change how long expansion takes, never what it prints.
func TestFDWeightsMemoInvisibleInExpansion(t *testing.T) {
	expand := func(m *propagators.Model) string {
		var b strings.Builder
		for _, eq := range m.Eqs {
			b.WriteString(symbolic.ExpandDerivatives(eq.LHS).String())
			b.WriteString(" = ")
			b.WriteString(symbolic.ExpandDerivatives(eq.RHS).String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, dims := range []int{2, 3} {
		shape := []int{24, 24, 24}[:dims]
		for _, so := range []int{4, 8, 16} {
			for _, name := range propagators.ModelNames() {
				t.Run(fmt.Sprintf("%s/%dd/so%d", name, dims, so), func(t *testing.T) {
					m, err := propagators.Build(name, propagators.Config{Shape: shape, SpaceOrder: so})
					if err != nil {
						t.Fatal(err)
					}
					if !strings.Contains(fmt.Sprint(m.Eqs), "/dx") {
						t.Fatalf("no x-derivative to expand in %v", m.Eqs)
					}
					symbolic.ResetFDWeightsMemo()
					cold := expand(m)
					warm := expand(m)
					if cold != warm {
						t.Fatalf("expansion with a cold memo:\n%s\nwith a warm one:\n%s", cold, warm)
					}
					if strings.Contains(cold, "/dx") {
						t.Fatalf("a derivative survived expansion:\n%s", cold)
					}
				})
			}
		}
	}
}
