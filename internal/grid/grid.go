// Package grid implements the structured computational grid, its domain
// decomposition over ranks, and the Cartesian process topology — the
// counterparts of Devito's Grid/Distributor objects.
package grid

import (
	"fmt"
)

// Grid describes a structured, uniformly-spaced domain.
type Grid struct {
	// Shape is the number of points per space dimension.
	Shape []int
	// Extent is the physical size per dimension; spacing is derived as
	// Extent[d] / (Shape[d]-1), matching Devito.
	Extent []float64
}

// New creates a grid, validating shape/extent agreement. A nil extent
// defaults to unit spacing.
func New(shape []int, extent []float64) (*Grid, error) {
	if len(shape) == 0 || len(shape) > 3 {
		return nil, fmt.Errorf("grid: unsupported dimensionality %d", len(shape))
	}
	for _, s := range shape {
		if s < 1 {
			return nil, fmt.Errorf("grid: shape entries must be positive, got %v", shape)
		}
	}
	if extent == nil {
		extent = make([]float64, len(shape))
		for d := range extent {
			extent[d] = float64(shape[d] - 1)
		}
	}
	if len(extent) != len(shape) {
		return nil, fmt.Errorf("grid: extent rank %d != shape rank %d", len(extent), len(shape))
	}
	g := &Grid{Shape: append([]int(nil), shape...), Extent: append([]float64(nil), extent...)}
	return g, nil
}

// MustNew is New for tests and examples with known-good arguments.
func MustNew(shape []int, extent []float64) *Grid {
	g, err := New(shape, extent)
	if err != nil {
		panic(err)
	}
	return g
}

// NDims returns the number of space dimensions.
func (g *Grid) NDims() int { return len(g.Shape) }

// Spacing returns the grid spacing along dimension d.
func (g *Grid) Spacing(d int) float64 {
	if g.Shape[d] == 1 {
		return g.Extent[d]
	}
	return g.Extent[d] / float64(g.Shape[d]-1)
}

// Spacings returns all spacings.
func (g *Grid) Spacings() []float64 {
	out := make([]float64, g.NDims())
	for d := range out {
		out[d] = g.Spacing(d)
	}
	return out
}

// Points returns the total number of grid points.
func (g *Grid) Points() int {
	n := 1
	for _, s := range g.Shape {
		n *= s
	}
	return n
}

// SpacingSymbols returns the canonical names bound to each spacing in
// symbolic expressions (h_x, h_y, h_z).
func (g *Grid) SpacingSymbols() []string {
	names := []string{"h_x", "h_y", "h_z"}
	return names[:g.NDims()]
}

// BoxRows walks the rows (runs along the last dimension) of the box with
// the given origin and shape inside a row-major array of shape gshape,
// in row-major order. fn receives each row's offset in the global array,
// its offset in the box's own dense row-major array, and its length.
// A box with an empty extent has no rows.
func BoxRows(gshape, origin, shape []int, fn func(globalOff, localOff, rowLen int)) {
	for _, s := range shape {
		if s <= 0 {
			return
		}
	}
	nd := len(shape)
	gstr := make([]int, nd)
	for d, s := nd-1, 1; d >= 0; d-- {
		gstr[d] = s
		s *= gshape[d]
	}
	rowLen := shape[nd-1]
	idx := make([]int, nd)
	for loff := 0; ; loff += rowLen {
		goff := 0
		for d, i := range idx {
			goff += (origin[d] + i) * gstr[d]
		}
		fn(goff, loff, rowLen)
		d := nd - 2
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < shape[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			return
		}
	}
}
