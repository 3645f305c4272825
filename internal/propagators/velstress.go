package propagators

import (
	"fmt"

	"devigo/internal/field"
	"devigo/internal/symbolic"
)

// comp names the vector/tensor components.
var comp = []string{"x", "y", "z"}

// stagSide returns the staggered-derivative side for differentiating field
// B along dim when the result is evaluated at field A's position: +1 when A
// sits half a cell above B in that dimension, -1 when below, 0 when
// co-located (centered — not used by the velocity–stress scheme).
func stagSide(aStag, bStag int) int {
	switch {
	case aStag == 1 && bStag == 0:
		return +1
	case aStag == 0 && bStag == 1:
		return -1
	}
	return 0
}

// dStag builds the staggered first derivative of expr along dim at the
// evaluation position implied by the stagger pair.
func dStag(e symbolic.Expr, dim, so, aStag, bStag int) symbolic.Expr {
	side := stagSide(aStag, bStag)
	if side == 0 {
		return symbolic.Dx(e, dim, so)
	}
	return symbolic.DxStaggered(e, dim, so, side)
}

// velStress is the first-order velocity–stress scaffold of Virieux's fully
// staggered grid, shared by the elastic and visco-elastic builders: the
// staggered velocity vector and stress tensor, the velocity update
// v.dt = b*div(tau) - damp*v, and the derivatives of the *updated*
// velocity (leapfrog) every stress-like update is built from. The
// builders differ only in their parameter fields and stress-side
// right-hand sides.
type velStress struct {
	*builder
	// vs[d] is staggered in dimension d; taus[d][e] == taus[e][d] sits at
	// the nodes for d == e and is staggered in d and e otherwise.
	vs   []*field.TimeFunction
	taus [][]*field.TimeFunction
}

// newVelStress validates the configuration and allocates the velocity
// vector ("v"+component) and the stress tensor ("t"+components).
func newVelStress(model string, cfg Config) (*velStress, error) {
	b, err := newBuilder(cfg)
	if err != nil {
		return nil, err
	}
	if b.nd < 2 {
		return nil, fmt.Errorf("propagators: %s needs 2 or 3 dimensions", model)
	}
	s := &velStress{builder: b, vs: make([]*field.TimeFunction, b.nd)}
	for d := range s.vs {
		st := make([]int, s.nd)
		st[d] = 1
		s.vs[d] = s.timeField("v"+comp[d], 1, st)
	}
	s.taus = s.tensor("t")
	return s, nil
}

// tensor allocates a symmetric tensor of two-buffer unknowns on the
// stress positions, named prefix+components (the stresses themselves, or
// memory variables co-located with them).
func (s *velStress) tensor(prefix string) [][]*field.TimeFunction {
	t := make([][]*field.TimeFunction, s.nd)
	for d := range t {
		t[d] = make([]*field.TimeFunction, s.nd)
	}
	for d := 0; d < s.nd; d++ {
		for e := d; e < s.nd; e++ {
			st := make([]int, s.nd)
			if d != e {
				st[d], st[e] = 1, 1
			}
			t[d][e] = s.timeField(prefix+comp[d]+comp[e], 1, st)
			t[e][d] = t[d][e]
		}
	}
	return t
}

// solve appends the explicit update tf[t+1] = ... of tf.dt = rhs.
func (s *velStress) solve(tf *field.TimeFunction, rhs symbolic.Expr) {
	s.update(symbolic.ForwardStencil(tf.Ref), symbolic.Eq{LHS: symbolic.Dt(symbolic.At(tf.Ref), 1), RHS: rhs})
}

// velocities appends v_d.dt = b * sum_e D_e tau_de - damp*v_d for every d.
func (s *velStress) velocities(b, damp *field.Function) {
	for d, v := range s.vs {
		var divT []symbolic.Expr
		for e, tde := range s.taus[d] {
			divT = append(divT, dStag(symbolic.At(tde.Ref), e, s.so, v.Stagger[e], tde.Stagger[e]))
		}
		s.solve(v, symbolic.Sub(
			symbolic.NewMul(symbolic.At(b.Ref), symbolic.NewAdd(divT...)),
			symbolic.NewMul(symbolic.At(damp.Ref), symbolic.At(v.Ref)),
		))
	}
}

// dv is D_along v_d of the updated velocity, evaluated at target's position.
func (s *velStress) dv(target *field.TimeFunction, d, along int) symbolic.Expr {
	return dStag(symbolic.ForwardStencil(s.vs[d].Ref), along, s.so,
		target.Stagger[along], s.vs[d].Stagger[along])
}

// divV is the divergence of the updated velocity at target's position.
func (s *velStress) divV(target *field.TimeFunction) symbolic.Expr {
	terms := make([]symbolic.Expr, s.nd)
	for e := range terms {
		terms[e] = s.dv(target, e, e)
	}
	return symbolic.NewAdd(terms...)
}

// strain is the shear pair D_e v_d + D_d v_e at target's position.
func (s *velStress) strain(target *field.TimeFunction, d, e int) symbolic.Expr {
	return symbolic.NewAdd(s.dv(target, d, e), s.dv(target, e, d))
}

// normalStresses names the fields a point source excites.
func (s *velStress) normalStresses() []string {
	src := make([]string, s.nd)
	for d := range src {
		src[d] = s.taus[d][d].Name
	}
	return src
}
