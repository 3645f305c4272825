package propagators

import (
	"fmt"

	"devigo/internal/field"
	"devigo/internal/grid"
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
// v.dt = b*div(tau) - damp*v, the derivatives of the *updated* velocity
// (leapfrog) every stress-like update is built from, and the
// solve-for-the-forward-stencil-and-append step. The builders differ only
// in their parameter fields and stress-side right-hand sides.
type velStress struct {
	c      Config
	g      *grid.Grid
	so, nd int
	fields map[string]*field.Function
	// vs[d] is staggered in dimension d; taus[d][e] == taus[e][d] sits at
	// the nodes for d == e and is staggered in d and e otherwise.
	vs   []*field.TimeFunction
	taus [][]*field.TimeFunction
	// eqs and waveFields grow in update order as solve is called.
	eqs        []symbolic.Eq
	waveFields []string
}

// newVelStress validates the configuration and allocates the velocity
// vector ("v"+component) and the stress tensor ("t"+components).
func newVelStress(model string, cfg Config) (*velStress, error) {
	c := cfg.withDefaults()
	if err := validateShape(&c, 4); err != nil {
		return nil, err
	}
	g, err := makeGrid(&c)
	if err != nil {
		return nil, err
	}
	s := &velStress{c: c, g: g, so: c.SpaceOrder, nd: g.NDims(), fields: map[string]*field.Function{}}
	if s.nd < 2 {
		return nil, fmt.Errorf("propagators: %s needs 2 or 3 dimensions", model)
	}
	s.vs = make([]*field.TimeFunction, s.nd)
	for d := range s.vs {
		st := make([]int, s.nd)
		st[d] = 1
		if s.vs[d], err = s.timeField("v"+comp[d], st); err != nil {
			return nil, err
		}
	}
	if s.taus, err = s.tensor("t"); err != nil {
		return nil, err
	}
	return s, nil
}

// timeField allocates and registers one two-buffer staggered unknown.
func (s *velStress) timeField(name string, stagger []int) (*field.TimeFunction, error) {
	tf, err := field.NewTimeFunction(name, s.g, s.so, 1, fieldCfg(&s.c, stagger))
	if err != nil {
		return nil, err
	}
	s.fields[name] = &tf.Function
	return tf, nil
}

// tensor allocates a symmetric tensor of unknowns on the stress positions,
// named prefix+components (the stresses themselves, or memory variables
// co-located with them).
func (s *velStress) tensor(prefix string) ([][]*field.TimeFunction, error) {
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
			tf, err := s.timeField(prefix+comp[d]+comp[e], st)
			if err != nil {
				return nil, err
			}
			t[d][e], t[e][d] = tf, tf
		}
	}
	return t, nil
}

// params allocates and registers node-centred parameter fields, returned
// in the order named.
func (s *velStress) params(names ...string) ([]*field.Function, error) {
	out := make([]*field.Function, len(names))
	for i, name := range names {
		f, err := field.NewFunction(name, s.g, s.so, fieldCfg(&s.c, nil))
		if err != nil {
			return nil, err
		}
		s.fields[name], out[i] = f, f
	}
	return out, nil
}

// solve appends the explicit update tf[t+1] = ... of tf.dt = rhs.
func (s *velStress) solve(tf *field.TimeFunction, rhs symbolic.Expr) error {
	sol, err := symbolic.Solve(symbolic.Eq{LHS: symbolic.Dt(symbolic.At(tf.Ref), 1), RHS: rhs},
		symbolic.ForwardStencil(tf.Ref))
	if err != nil {
		return err
	}
	s.eqs = append(s.eqs, symbolic.Eq{LHS: symbolic.ForwardStencil(tf.Ref), RHS: sol})
	s.waveFields = append(s.waveFields, tf.Name)
	return nil
}

// velocities appends v_d.dt = b * sum_e D_e tau_de - damp*v_d for every d.
func (s *velStress) velocities(b, damp *field.Function) error {
	for d, v := range s.vs {
		var divT []symbolic.Expr
		for e, tde := range s.taus[d] {
			divT = append(divT, dStag(symbolic.At(tde.Ref), e, s.so, v.Stagger[e], tde.Stagger[e]))
		}
		rhs := symbolic.Sub(
			symbolic.NewMul(symbolic.At(b.Ref), symbolic.NewAdd(divT...)),
			symbolic.NewMul(symbolic.At(damp.Ref), symbolic.At(v.Ref)),
		)
		if err := s.solve(v, rhs); err != nil {
			return err
		}
	}
	return nil
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

// model assembles the Model: a point source excites the normal stresses.
func (s *velStress) model(name string, criticalDt float64, workingSet int) *Model {
	src := make([]string, s.nd)
	for d := range src {
		src[d] = s.taus[d][d].Name
	}
	return &Model{
		Name:             name,
		Grid:             s.g,
		SpaceOrder:       s.so,
		Eqs:              s.eqs,
		Fields:           s.fields,
		WaveFields:       s.waveFields,
		SourceFields:     src,
		CriticalDt:       criticalDt,
		WorkingSetFields: workingSet,
		Cfg:              s.c,
	}
}
