// Package propagators builds the four seismic wave models evaluated by the
// paper — isotropic acoustic, TTI (anisotropic acoustic), isotropic
// elastic, and visco-elastic — as symbolic equation systems over devigo
// fields, together with their physical setup (velocity model, absorbing
// boundary damping, CFL timestep, Ricker source).
package propagators

import (
	"math"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/symbolic"
)

// Config describes a model instantiation.
type Config struct {
	// Shape is the interior grid shape (absorbing layers included —
	// callers size the domain as in the paper: physical + 2*NBL).
	Shape []int
	// SpaceOrder is the spatial discretisation order (4, 8, 12, 16).
	SpaceOrder int
	// NBL is the absorbing boundary layer width in points (paper: 40);
	// it must be >= 0, and 0 is no layer.
	NBL int
	// Velocity is the homogeneous background P-wave speed (km/s if
	// extents are in km; any consistent unit works). It must be positive
	// and finite; 0 means the default 1.5.
	Velocity float64
	// Decomp/Rank distribute the fields; nil Decomp means serial.
	Decomp *grid.Decomposition
	Rank   int
}

// Model is a ready-to-compile propagator.
type Model struct {
	Name       string
	Grid       *grid.Grid
	SpaceOrder int
	Eqs        []symbolic.Eq
	Fields     map[string]*field.Function
	// WaveFields names the time-varying unknowns in update order.
	WaveFields []string
	// SourceFields lists the fields a point source injects into (one for
	// acoustic/TTI, the normal stresses for elastic/viscoelastic).
	SourceFields []string
	// CriticalDt is the CFL-stable timestep for the configured velocity.
	CriticalDt float64
	// WorkingSetFields counts the fields in the working set, with time
	// buffers counted individually — the paper's "N fields" metric.
	WorkingSetFields int
	// Cfg is the (defaulted) configuration the model was built from, kept
	// so companion operators (the adjoint, imaging kernels) can allocate
	// matching storage on the same decomposition.
	Cfg Config
}

// fieldCfg builds the per-field storage config for a model config.
func fieldCfg(c *Config, stagger []int) *field.Config {
	return &field.Config{Stagger: stagger, Decomp: c.Decomp, Rank: c.Rank}
}

// domainRows calls fn once per contiguous row of f's DOMAIN in time buffer
// t, in row-major order: idx holds the row's domain-relative coordinates
// (last entry 0), row its LocalShape[last] elements.
func domainRows(f *field.Function, t int, fn func(idx []int, row []float32)) {
	buf := f.Buf(t)
	last := f.NDims() - 1
	idx := make([]int, last+1)
	var rec func(d, base int)
	rec = func(d, base int) {
		if d == last {
			base += f.Halo[d] * buf.Strides[d]
			fn(idx, buf.Data[base:base+f.LocalShape[d]])
			return
		}
		for idx[d] = 0; idx[d] < f.LocalShape[d]; idx[d]++ {
			rec(d+1, base+(idx[d]+f.Halo[d])*buf.Strides[d])
		}
	}
	rec(0, 0)
}

// dampField fills an absorbing-boundary damping profile: zero in the
// interior, growing quadratically towards the domain faces over the NBL
// outermost points (Devito's damp field).
func dampField(f *field.Function, nbl int, coeff float64) {
	if nbl <= 0 {
		return
	}
	shape := f.Grid.Shape
	// penalty is how far into the layer local point i of dimension k sits:
	// 0 outside it, 1 on the face.
	penalty := func(k, i int) float64 {
		g := f.Origin[k] + i
		dist := min(g, shape[k]-1-g)
		if dist >= nbl {
			return 0
		}
		return float64(nbl-dist) / float64(nbl)
	}
	last := f.NDims() - 1
	// Along a row only the points within nbl of the grid's ends have a
	// penalty of their own: local points [lo, hi) take the row's value.
	lo := min(max(nbl-f.Origin[last], 0), f.LocalShape[last])
	hi := max(min(shape[last]-nbl-f.Origin[last], f.LocalShape[last]), lo)
	domainRows(f, 0, func(idx []int, row []float32) {
		// The deepest penalty over the row's fixed coordinates.
		outer := 0.0
		for k := 0; k < last; k++ {
			outer = max(outer, penalty(k, idx[k]))
		}
		at := func(i int) float32 {
			depth := max(outer, penalty(last, i))
			return float32(coeff * depth * depth)
		}
		for i := 0; i < lo; i++ {
			row[i] = at(i)
		}
		// penalty is 0 here, and max(outer, 0) is outer.
		interior := float32(coeff * outer * outer)
		for i := lo; i < hi; i++ {
			row[i] = interior
		}
		for i := hi; i < len(row); i++ {
			row[i] = at(i)
		}
	})
}

// fillConst sets a field's DOMAIN to a constant.
func fillConst(f *field.Function, v float32) {
	domainRows(f, 0, func(_ []int, row []float32) {
		for i := range row {
			row[i] = v
		}
	})
}

// criticalDt computes the CFL bound dt <= coeff * h_min / v_max. The
// coefficient folds in the dimensionality and FD-order safety factor used
// by Devito's wave examples.
func criticalDt(g *grid.Grid, vmax float64) float64 {
	hmin := math.Inf(1)
	for d := 0; d < g.NDims(); d++ {
		if h := g.Spacing(d); h < hmin {
			hmin = h
		}
	}
	coeff := 0.38
	if g.NDims() == 2 {
		coeff = 0.42
	}
	return coeff * hmin / vmax
}

// CenterSource returns the physical coordinates of the domain centre — the
// default source position for examples and benchmarks.
func CenterSource(g *grid.Grid) []float64 {
	out := make([]float64, g.NDims())
	for d := range out {
		out[d] = g.Extent[d] / 2
	}
	return out
}

// ReceiverLine returns n receiver coordinates evenly spaced along the
// first dimension, end to end, at fixed depth in the remaining ones. A
// line of one is its midpoint; n < 1 is no receivers.
func ReceiverLine(g *grid.Grid, n int) [][]float64 {
	var out [][]float64
	for i := 0; i < n; i++ {
		c := make([]float64, g.NDims())
		c[0] = g.Extent[0] / 2
		if n > 1 {
			c[0] = g.Extent[0] * float64(i) / float64(n-1)
		}
		for d := 1; d < g.NDims(); d++ {
			c[d] = g.Extent[d] / 4
		}
		out = append(out, c)
	}
	return out
}
