package core_test

import (
	"testing"

	"devigo/internal/bytecode"
	"devigo/internal/core"
	"devigo/internal/iet"
	"devigo/internal/propagators"
	"devigo/internal/symbolic"
)

// TestConstructionWalksEachTreeOnce holds construction to one expansion
// per equation and one keyed walk per cluster right-hand side. CIRE
// expands every equation it rewrites (its analysis reads the expansions),
// so lowering takes them as they are and NewOperator expands no more than
// CIRE alone does. iet.Build keys each right-hand side once and its
// passes reuse the keys, and the kernel compiler reads the keys the nests
// carry, so the whole construction keys each right-hand side once. TTI
// covers CIRE's scratch equations; acoustic has none.
func TestConstructionWalksEachTreeOnce(t *testing.T) {
	for _, name := range []string{"acoustic", "tti"} {
		t.Run(name, func(t *testing.T) {
			m, err := propagators.Build(name, propagators.Config{Shape: []int{32, 32}, SpaceOrder: 8, Velocity: 1.5})
			if err != nil {
				t.Fatal(err)
			}
			e0 := symbolic.Expansions()
			eqs, _, _ := core.ApplyCIRE(m.Eqs, m.Grid.NDims())
			cire := symbolic.Expansions() - e0
			for _, e := range eqs {
				if symbolic.ExpandDerivatives(e.RHS).String() != e.RHS.String() {
					t.Fatalf("CIRE returned %s unexpanded", e.RHS)
				}
			}

			e0, k0 := symbolic.Expansions(), symbolic.Keyings()
			op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer op.Close()
			expanded, keyed := symbolic.Expansions()-e0, symbolic.Keyings()-k0
			rhs := 0
			for _, st := range op.Schedule.Steps {
				rhs += len(st.Cluster.Eqs)
			}
			if expanded != cire {
				t.Errorf("NewOperator expanded %d expressions, CIRE alone %d: lowering expanded again", expanded, cire)
			}
			if keyed != int64(rhs) {
				t.Errorf("NewOperator keyed %d expressions for %d cluster right-hand sides", keyed, rhs)
			}

			k0 = symbolic.Keyings()
			tree := iet.Build(op.Name, op.Schedule)
			if got := symbolic.Keyings() - k0; got != int64(rhs) {
				t.Errorf("iet.Build keyed %d expressions for %d cluster right-hand sides", got, rhs)
			}
			k0 = symbolic.Keyings()
			iet.Walk(tree, func(n iet.Node) {
				nest, ok := n.(iet.LoopNest)
				if !ok {
					return
				}
				if _, err := bytecode.CompileKeyed(nest.Assigns, nest.Exprs, nest.Keyed, nest.Cluster.Radius, m.Fields); err != nil {
					t.Fatal(err)
				}
			})
			if got := symbolic.Keyings() - k0; got != 0 {
				t.Errorf("compiling the nests iet.Build made keyed %d expressions again", got)
			}
		})
	}
}
