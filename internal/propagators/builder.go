package propagators

import (
	"fmt"
	"math"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/symbolic"
)

// builder is the one place a model is put together: it validates the
// configuration, makes the grid, creates and registers the fields,
// solves each update for its target and assembles the Model, whose
// working set is the number of buffers registered. Field creation and
// solve keep the first error, returned by model, so a model's builder
// reads as its physics; a builder checks err once before it writes
// equations over the fields it created.
type builder struct {
	c      Config
	g      *grid.Grid
	so, nd int
	fields map[string]*field.Function
	// eqs and waveFields grow in update order.
	eqs        []symbolic.Eq
	waveFields []string
	buffers    int
	err        error
}

// newBuilder applies cfg's defaults, validates it and makes its grid.
func newBuilder(cfg Config) (*builder, error) {
	c := cfg
	if c.SpaceOrder == 0 {
		c.SpaceOrder = 8
	}
	if c.Velocity == 0 {
		c.Velocity = 1.5
	}
	// A space order the finite-difference offsets would silently floor to
	// the next lower even one, a speed that gives no usable critical dt,
	// a negative layer, or a grid too small to hold a stencil.
	if c.SpaceOrder < 2 || c.SpaceOrder%2 != 0 {
		return nil, fmt.Errorf("propagators: SpaceOrder=%d unsupported (need an even order >= 2)", c.SpaceOrder)
	}
	if !(c.Velocity > 0) || math.IsInf(c.Velocity, 1) {
		return nil, fmt.Errorf("propagators: Config.Velocity=%v must be positive and finite", c.Velocity)
	}
	if c.NBL < 0 {
		return nil, fmt.Errorf("propagators: Config.NBL=%d must be >= 0", c.NBL)
	}
	for d, s := range c.Shape {
		if s < 4 {
			return nil, fmt.Errorf("propagators: shape[%d]=%d too small (need >= 4)", d, s)
		}
	}
	// Unit spacing: physical coordinates are grid-point coordinates.
	g, err := grid.New(c.Shape, nil)
	if err != nil {
		return nil, err
	}
	return builderOn(c, g), nil
}

// builderOn starts a builder for an already validated configuration on
// its grid: a companion model shares its forward model's.
func builderOn(c Config, g *grid.Grid) *builder {
	return &builder{c: c, g: g, so: c.SpaceOrder, nd: g.NDims(), fields: map[string]*field.Function{}}
}

// register adds f to the model and its buffers to the working set.
func (b *builder) register(f *field.Function) {
	b.fields[f.Name] = f
	b.buffers += len(f.Bufs)
}

// timeField creates and registers an unknown with timeOrder+1 buffers,
// staggered by stagger (nil: node-centred).
func (b *builder) timeField(name string, timeOrder int, stagger []int) *field.TimeFunction {
	if b.err != nil {
		return nil
	}
	tf, err := field.NewTimeFunction(name, b.g, b.so, timeOrder, fieldCfg(&b.c, stagger))
	if err != nil {
		b.err = err
		return nil
	}
	b.register(&tf.Function)
	return tf
}

// param registers a node-centred parameter field holding the homogeneous
// value v (a fresh buffer is already 0). The field fills its DOMAIN when
// its storage is allocated, at the ghost depth its first operator
// provisions.
func (b *builder) param(name string, v float64) *field.Function {
	if b.err != nil {
		return nil
	}
	f, err := field.NewFunction(name, b.g, b.so, fieldCfg(&b.c, nil))
	if err != nil {
		b.err = err
		return nil
	}
	if v != 0 {
		f.Initialize(func(f *field.Function) { fillConst(f, float32(v)) })
	}
	b.register(f)
	return f
}

// damp registers the absorbing-boundary profile "damp" over the
// configured layer, filled like a param's value.
func (b *builder) damp(coeff float64) *field.Function {
	f := b.param("damp", 0)
	if f != nil {
		nbl := b.c.NBL
		f.Initialize(func(f *field.Function) { dampField(f, nbl, coeff) })
	}
	return f
}

// share registers another model's field, read but not reallocated.
func (b *builder) share(from *Model, name string) *field.Function {
	if b.err != nil {
		return nil
	}
	f := from.Fields[name]
	if f == nil {
		b.err = fmt.Errorf("propagators: %s model lacks the %s field", from.Name, name)
		return nil
	}
	b.register(f)
	return f
}

// update solves eq for target, a wavefield one step ahead in the
// direction of time, and appends the explicit update target = solution.
func (b *builder) update(target symbolic.Access, eq symbolic.Eq) {
	if b.err != nil {
		return
	}
	sol, err := symbolic.Solve(eq, target)
	if err != nil {
		b.err = err
		return
	}
	b.eqs = append(b.eqs, symbolic.Eq{LHS: target, RHS: sol})
	b.waveFields = append(b.waveFields, target.Fun.Name)
}

// waveEquation appends m*u.dt2 - laplace(u) + dir*damp*u.dt = 0 solved for
// u[t+dir]: dir +1 is the acoustic forward update, dir -1 its adjoint,
// whose flipped damping sign makes the reversed recursion the exact
// transpose of the forward one.
func (b *builder) waveEquation(u *field.TimeFunction, m, damp *field.Function, dir int) {
	ut := symbolic.At(u.Ref)
	damping := symbolic.NewMul(symbolic.At(damp.Ref), symbolic.Dt(ut, 2))
	target := symbolic.ForwardStencil(u.Ref)
	if dir < 0 {
		damping, target = symbolic.Neg(damping), symbolic.Backward(u.Ref)
	}
	pde := symbolic.NewAdd(
		symbolic.NewMul(symbolic.At(m.Ref), symbolic.Dt2(ut, 2)),
		symbolic.Neg(symbolic.Laplace(ut, b.nd, b.so)),
		damping,
	)
	b.update(target, symbolic.Eq{LHS: pde, RHS: symbolic.Int(0)})
}

// model returns the Model built so far, a point source exciting the
// sources fields, or the first error.
func (b *builder) model(name string, sources []string, criticalDt float64) (*Model, error) {
	if b.err != nil {
		return nil, b.err
	}
	return &Model{
		Name:             name,
		Grid:             b.g,
		SpaceOrder:       b.so,
		Eqs:              b.eqs,
		Fields:           b.fields,
		WaveFields:       b.waveFields,
		SourceFields:     sources,
		CriticalDt:       criticalDt,
		WorkingSetFields: b.buffers,
		Cfg:              b.c,
	}, nil
}
