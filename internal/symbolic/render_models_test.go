package symbolic_test

import (
	"fmt"
	"math/big"
	"testing"

	"devigo/internal/core"
	"devigo/internal/iet"
	"devigo/internal/propagators"
	"devigo/internal/symbolic"
)

// compilerExprs returns every expression construction makes of model m:
// its equations as built, with their derivatives expanded, the schedule's
// lowered equations (CIRE's scratch equations and rewritten updates after
// ir.Lower) and the IET's hoisted invariants, CSE temporaries and
// statements (iet.Build).
func compilerExprs(t *testing.T, m *propagators.Model) (built, lowered, tree []symbolic.Expr) {
	t.Helper()
	for _, eq := range m.Eqs {
		built = append(built, eq.LHS, eq.RHS, symbolic.ExpandDerivatives(eq.RHS))
	}
	op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, &core.Options{Name: m.Name})
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	for _, st := range op.Schedule.Steps {
		for _, eq := range st.Cluster.Eqs {
			lowered = append(lowered, eq.RHS)
			tree = append(tree, eq.LHS)
		}
	}
	iet.Walk(op.Tree, func(n iet.Node) {
		switch v := n.(type) {
		case iet.ScalarAssign:
			tree = append(tree, v.Value)
		case iet.LoopNest:
			for _, a := range v.Assigns {
				tree = append(tree, a.Value)
			}
			for _, eq := range v.Exprs {
				tree = append(tree, eq.LHS, eq.RHS)
			}
		}
	})
	return built, lowered, tree
}

// modelCases builds the four propagators and the acoustic adjoint at so
// {4, 8, 16} in 2-D and 3-D.
func modelCases(t *testing.T, fn func(t *testing.T, m *propagators.Model)) {
	for _, dims := range []int{2, 3} {
		shape := []int{40, 40, 40}[:dims]
		for _, so := range []int{4, 8, 16} {
			for _, name := range append(propagators.ModelNames(), "acoustic-adjoint") {
				t.Run(fmt.Sprintf("%s/%dd/so%d", name, dims, so), func(t *testing.T) {
					model := name
					if name == "acoustic-adjoint" {
						model = "acoustic"
					}
					m, err := propagators.Build(model, propagators.Config{Shape: shape, SpaceOrder: so, Velocity: 1.5})
					if err != nil {
						t.Fatal(err)
					}
					if name == "acoustic-adjoint" {
						if m, err = propagators.Adjoint(m); err != nil {
							t.Fatal(err)
						}
					}
					fn(t, m)
				})
			}
		}
	}
}

// TestRenderMatchesReference holds the append-based renderer to the
// fmt-based one it replaced on every node of every expression the
// compiler makes of the real models, and every keyed walk's keys to
// String on the expressions the keyed passes see.
func TestRenderMatchesReference(t *testing.T) {
	modelCases(t, func(t *testing.T, m *propagators.Model) {
		built, lowered, tree := compilerExprs(t, m)
		for _, set := range [][]symbolic.Expr{built, lowered, tree} {
			for _, e := range set {
				if err := symbolic.CheckRender(e); err != nil {
					t.Fatalf("%v\nin %s", err, e)
				}
			}
		}
		if err := symbolic.CheckKeyedWalks(lowered); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSharedCoefficientsStayIntact snapshots every rational reachable from
// the four propagators' equations (and from their expansions and
// collections, which share them), runs the passes that fold and merge
// coefficients, and construction as a whole, over them: a rational a node
// holds may be shared (FD weights come straight from their memo), so a
// pass that wrote to one would show up here.
func TestSharedCoefficientsStayIntact(t *testing.T) {
	for _, name := range propagators.ModelNames() {
		t.Run(name, func(t *testing.T) {
			m, err := propagators.Build(name, propagators.Config{Shape: []int{32, 32}, SpaceOrder: 8, Velocity: 1.5})
			if err != nil {
				t.Fatal(err)
			}
			var exprs []symbolic.Expr
			for _, eq := range m.Eqs {
				expanded := symbolic.ExpandDerivatives(eq.RHS)
				exprs = append(exprs, eq.LHS, eq.RHS, expanded, symbolic.Collect(expanded))
			}
			snap := map[*big.Rat]string{}
			for _, e := range exprs {
				symbolic.Walk(e, func(n symbolic.Expr) bool {
					if v, ok := n.(symbolic.Num); ok {
						snap[v.Val] = v.Val.RatString()
					}
					return true
				})
			}
			var collected []symbolic.Keyed
			for _, e := range exprs {
				c := symbolic.KeyOf(symbolic.Collect(e))
				// e + e merges every term with its twin, whose
				// coefficient is the same rational.
				collected = append(collected, c, symbolic.FactorCommon(c),
					symbolic.KeyOf(symbolic.Collect(symbolic.NewAdd(e, e))))
			}
			temp := 0
			_, hoisted := symbolic.HoistInvariants(collected, &temp)
			symbolic.CSE(hoisted, &temp)
			op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, &core.Options{Name: m.Name})
			if err != nil {
				t.Fatal(err)
			}
			op.Close()
			for r, was := range snap {
				if now := r.RatString(); now != was {
					t.Errorf("a shared coefficient changed from %s to %s", was, now)
				}
			}
			if len(snap) == 0 {
				t.Fatal("no coefficients to watch")
			}
		})
	}
}
