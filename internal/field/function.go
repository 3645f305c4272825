package field

import (
	"fmt"
	"slices"

	"devigo/internal/grid"
	"devigo/internal/symbolic"
)

// Function is a discrete function over the grid's space dimensions — a
// parameter field like the squared slowness m. Its storage covers the local
// domain plus a halo of width SpaceOrder/2 on each side (the read-only ghost
// region in serial runs, the exchanged region under DMP).
type Function struct {
	Name       string
	Grid       *grid.Grid
	SpaceOrder int

	// Halo is the ghost width per dimension per side.
	Halo []int
	// BaseHalo is the ghost width the function was allocated with.
	// GrowHalo widens Halo and leaves BaseHalo alone: it is the depth an
	// exchange-every-step schedule exchanges.
	BaseHalo []int
	// LocalShape is the owned (DOMAIN) shape: the full grid shape in a
	// serial run or this rank's chunk under a decomposition.
	LocalShape []int
	// Origin is the global index of the first owned point per dimension.
	Origin []int
	// Bufs holds the time buffers; plain Functions have exactly one.
	Bufs []*Buffer
	// Ref is the symbolic handle used in equations.
	Ref *symbolic.FuncRef
	// Stagger marks half-node storage per dimension (0 or 1).
	Stagger []int
}

// TimeFunction is a time-varying discrete function with TimeOrder+1
// cyclic buffers (u[t-1], u[t], u[t+1] for second order).
type TimeFunction struct {
	Function
	TimeOrder int
}

// Config bundles the optional knobs for constructing functions.
type Config struct {
	// Decomp distributes the function; nil means serial (whole grid local).
	Decomp *grid.Decomposition
	// Rank is the owning rank under Decomp.
	Rank int
	// Stagger requests half-node storage per dimension.
	Stagger []int
	// HaloWidth overrides the default ghost width (SpaceOrder per side,
	// the Devito convention). Values smaller than the minimum stencil
	// radius SpaceOrder/2 would under-allocate the ghost zone every
	// derivative of that order reads, so they are rejected with an error.
	HaloWidth int
}

// NewFunction creates a space-only function.
func NewFunction(name string, g *grid.Grid, spaceOrder int, cfg *Config) (*Function, error) {
	f := &Function{Name: name, Grid: g, SpaceOrder: spaceOrder}
	if err := f.initGeometry(cfg); err != nil {
		return nil, err
	}
	f.Bufs = []*Buffer{NewBuffer(f.FullShape())}
	f.Ref = &symbolic.FuncRef{Name: name, NDims: g.NDims(), Stagger: f.Stagger}
	return f, nil
}

// NewTimeFunction creates a time-varying function with timeOrder+1 buffers.
func NewTimeFunction(name string, g *grid.Grid, spaceOrder, timeOrder int, cfg *Config) (*TimeFunction, error) {
	if timeOrder < 1 || timeOrder > 2 {
		return nil, fmt.Errorf("field: time order %d unsupported (want 1 or 2)", timeOrder)
	}
	tf := &TimeFunction{TimeOrder: timeOrder}
	tf.Name = name
	tf.Grid = g
	tf.SpaceOrder = spaceOrder
	if err := tf.initGeometry(cfg); err != nil {
		return nil, err
	}
	nbufs := timeOrder + 1
	tf.Bufs = make([]*Buffer, nbufs)
	for i := range tf.Bufs {
		tf.Bufs[i] = NewBuffer(tf.FullShape())
	}
	tf.Ref = &symbolic.FuncRef{Name: name, NDims: g.NDims(), IsTime: true, NumBufs: nbufs, Stagger: tf.Stagger}
	return tf, nil
}

func (f *Function) initGeometry(cfg *Config) error {
	nd := f.Grid.NDims()
	// Devito convention (paper Section III-d): a function of space order k
	// has a halo of size k per side, not k/2 — the extra width covers
	// mixed/rotated derivatives whose footprint exceeds the plain
	// Laplacian radius.
	hw := f.SpaceOrder
	if cfg != nil && cfg.HaloWidth > 0 {
		if minR := f.SpaceOrder / 2; cfg.HaloWidth < minR {
			return fmt.Errorf("field: %s: HaloWidth %d is below the stencil radius %d of space order %d; ghost zones would be under-allocated",
				f.Name, cfg.HaloWidth, minR, f.SpaceOrder)
		}
		hw = cfg.HaloWidth
	}
	f.Halo = make([]int, nd)
	for d := range f.Halo {
		f.Halo[d] = hw
	}
	f.BaseHalo = slices.Clone(f.Halo)
	f.Stagger = make([]int, nd)
	if cfg != nil && cfg.Stagger != nil {
		if len(cfg.Stagger) != nd {
			return fmt.Errorf("field: stagger rank mismatch")
		}
		copy(f.Stagger, cfg.Stagger)
	}
	if cfg != nil && cfg.Decomp != nil {
		f.LocalShape = cfg.Decomp.LocalShape(cfg.Rank)
		f.Origin = cfg.Decomp.LocalOrigin(cfg.Rank)
		// A halo wider than the smallest neighbouring chunk cannot be
		// filled by nearest-neighbour exchange; reject the configuration
		// (Devito errors likewise when the decomposition is too fine).
		for d := 0; d < nd; d++ {
			if cfg.Decomp.Topology[d] > 1 {
				minChunk := f.Grid.Shape[d] / cfg.Decomp.Topology[d]
				if hw > minChunk {
					return fmt.Errorf("field: halo %d exceeds the smallest local extent %d along dim %d; use fewer ranks or a lower space order", hw, minChunk, d)
				}
			}
		}
	} else {
		f.LocalShape = append([]int(nil), f.Grid.Shape...)
		f.Origin = make([]int, nd)
	}
	return nil
}

// GrowHalo widens the allocated ghost region to at least halo[d] points
// per side, reallocating every time buffer with the new strides and
// copying the old allocation (owned data and existing ghost content) into
// place; newly gained ghost cells are zero, like a fresh allocation.
// Dimensions already wide enough are untouched and shrinking is not
// supported, so repeated calls are monotone; BaseHalo keeps the width
// the function was allocated with. Compiled kernels survive a
// grow because they resolve strides and halo offsets at execution time —
// this is what lets an operator deepen ghost storage for a larger exchange
// interval without recompiling.
func (f *Function) GrowHalo(halo []int) {
	nd := f.NDims()
	newHalo := append([]int(nil), f.Halo...)
	grew := false
	for d := 0; d < nd && d < len(halo); d++ {
		if halo[d] > newHalo[d] {
			newHalo[d] = halo[d]
			grew = true
		}
	}
	if !grew {
		return
	}
	old := f.FullRegion()
	shifted := Region{Lo: make([]int, nd), Hi: make([]int, nd)}
	for d := 0; d < nd; d++ {
		off := newHalo[d] - f.Halo[d]
		shifted.Lo[d] = old.Lo[d] + off
		shifted.Hi[d] = old.Hi[d] + off
	}
	tmp := make([]float32, old.Size())
	f.Halo = newHalo
	for bi, b := range f.Bufs {
		b.Pack(old, tmp)
		nb := NewBuffer(f.FullShape())
		nb.Unpack(shifted, tmp)
		f.Bufs[bi] = nb
	}
}

// FullShape is the allocated shape: DOMAIN plus halo on both sides.
func (f *Function) FullShape() []int {
	out := make([]int, len(f.LocalShape))
	for d := range out {
		out[d] = f.LocalShape[d] + 2*f.Halo[d]
	}
	return out
}

// NDims returns the space dimensionality.
func (f *Function) NDims() int { return f.Grid.NDims() }

// Buf returns the time buffer for logical time index t (cyclic). Plain
// functions ignore t.
func (f *Function) Buf(t int) *Buffer {
	n := len(f.Bufs)
	if n == 1 {
		return f.Bufs[0]
	}
	return f.Bufs[((t%n)+n)%n]
}

// DomainRegion is the writable owned box in buffer coordinates.
func (f *Function) DomainRegion() Region {
	nd := f.NDims()
	r := Region{Lo: make([]int, nd), Hi: make([]int, nd)}
	for d := 0; d < nd; d++ {
		r.Lo[d] = f.Halo[d]
		r.Hi[d] = f.Halo[d] + f.LocalShape[d]
	}
	return r
}

// FullRegion covers the whole allocation including halos.
func (f *Function) FullRegion() Region {
	nd := f.NDims()
	r := Region{Lo: make([]int, nd), Hi: make([]int, nd)}
	copy(r.Hi, f.FullShape())
	return r
}

// Slab is the one geometry of a halo exchange, in the buffer coordinates
// of a box owning local[d] points with halo[d] allocated ghost points per
// side: the region exchanged with the neighbour at the given topology
// offset (entries in {-1,0,1}) at depth[d] points per side (nil: the full
// allocated width). recv false gives the OWNED band shipped to that
// neighbour, recv true the GHOST band it fills. Zero-offset dimensions
// span the owned extent; includeHalo widens them by depth[d] ghost points
// per side — the part of the halo a depth-wide sweep of that dimension
// has already filled (the basic pattern's dimension sweep).
func Slab(local, halo, offset []int, includeHalo []bool, depth []int, recv bool) Region {
	nd := len(local)
	r := Region{Lo: make([]int, nd), Hi: make([]int, nd)}
	for d := 0; d < nd; d++ {
		h, n := halo[d], local[d]
		g := h
		if depth != nil {
			g = depth[d]
		}
		// shift moves the owned band onto the ghost band beside it.
		shift := 0
		if recv {
			shift = g
		}
		switch offset[d] {
		case 0:
			if includeHalo != nil && includeHalo[d] {
				r.Lo[d], r.Hi[d] = h-g, h+n+g
			} else {
				r.Lo[d], r.Hi[d] = h, h+n
			}
		case 1:
			r.Lo[d], r.Hi[d] = h+n-g+shift, h+n+shift
		case -1:
			r.Lo[d], r.Hi[d] = h-shift, h+g-shift
		default:
			panic("field: offset entries must be -1, 0 or 1")
		}
	}
	return r
}

// SendRegionDepth returns the OWNED slab shipped to the neighbour at
// offset (see Slab).
func (f *Function) SendRegionDepth(offset []int, includeHalo []bool, depth []int) Region {
	return Slab(f.LocalShape, f.Halo, offset, includeHalo, depth, false)
}

// RecvRegionDepth returns the HALO slab populated by the neighbour at
// offset (see Slab).
func (f *Function) RecvRegionDepth(offset []int, includeHalo []bool, depth []int) Region {
	return Slab(f.LocalShape, f.Halo, offset, includeHalo, depth, true)
}

// SetDomain writes v at domain-relative coordinates (0-based within the
// owned box) of time buffer t.
func (f *Function) SetDomain(t int, v float32, idx ...int) {
	buf := f.Buf(t)
	shifted := make([]int, len(idx))
	for d, i := range idx {
		shifted[d] = i + f.Halo[d]
	}
	buf.Set(v, shifted...)
}

// AtDomain reads at domain-relative coordinates of time buffer t.
func (f *Function) AtDomain(t int, idx ...int) float32 {
	buf := f.Buf(t)
	shifted := make([]int, len(idx))
	for d, i := range idx {
		shifted[d] = i + f.Halo[d]
	}
	return buf.At(shifted...)
}
