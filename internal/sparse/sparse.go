// Package sparse implements SparseFunctions: sets of points that do not
// align with the computational grid (paper Section III-c, Fig. 3). Sparse
// points support injection (scatter-add of a source term into the grid)
// and interpolation (reading the wavefield at off-grid receiver
// positions), with multi-rank ownership resolved so that every grid-point
// contribution is applied exactly once under any domain decomposition.
package sparse

import (
	"fmt"
	"math"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/mpi"
)

// SparseFunction is a set of off-grid points with physical coordinates.
// The coordinates are fixed at New, which resolves every point's support
// once: injection and interpolation then reuse it at every step.
type SparseFunction struct {
	Name   string
	Grid   *grid.Grid
	Coords [][]float64 // npoints x ndims, in physical units; read-only after New

	// supports[p] is point p's support, computed from Coords by New.
	supports [][]corner
}

// New validates coordinates against the grid extent. Non-finite
// coordinates are rejected by name: NaN compares false against both
// bounds and would otherwise pass as inside.
func New(name string, g *grid.Grid, coords [][]float64) (*SparseFunction, error) {
	nd := g.NDims()
	for i, c := range coords {
		if len(c) != nd {
			return nil, fmt.Errorf("sparse: point %d has %d coordinates, want %d", i, len(c), nd)
		}
		for d, x := range c {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("sparse: point %d coordinate %d is %g, want a finite position in [0,%g]", i, d, x, g.Extent[d])
			}
			if x < 0 || x > g.Extent[d] {
				return nil, fmt.Errorf("sparse: point %d coordinate %g outside extent [0,%g]", i, x, g.Extent[d])
			}
		}
	}
	s := &SparseFunction{Name: name, Grid: g, Coords: make([][]float64, len(coords)),
		supports: make([][]corner, len(coords))}
	for i, c := range coords {
		s.Coords[i] = append([]float64(nil), c...)
		s.supports[i] = s.support(i)
	}
	return s, nil
}

// NPoints returns the point count.
func (s *SparseFunction) NPoints() int { return len(s.Coords) }

// corner is one grid corner of the cell containing a point: its global
// grid index and its bilinear/trilinear weight.
type corner struct {
	idx    []int
	weight float64
}

// support enumerates the 2^nd grid corners of the cell containing point p
// with their nonzero weights; New keeps the result in supports.
func (s *SparseFunction) support(p int) []corner {
	nd := s.Grid.NDims()
	base := make([]int, nd)
	frac := make([]float64, nd)
	for d := 0; d < nd; d++ {
		h := s.Grid.Spacing(d)
		pos := s.Coords[p][d] / h
		b := int(math.Floor(pos))
		// Clamp to the last cell so points on the upper boundary stay valid.
		if b > s.Grid.Shape[d]-2 {
			b = s.Grid.Shape[d] - 2
		}
		if b < 0 {
			b = 0
		}
		base[d] = b
		frac[d] = pos - float64(b)
	}
	n := 1 << nd
	out := make([]corner, 0, n)
	for mask := 0; mask < n; mask++ {
		idx := make([]int, nd)
		w := 1.0
		for d := 0; d < nd; d++ {
			if mask&(1<<d) != 0 {
				idx[d] = base[d] + 1
				w *= frac[d]
			} else {
				idx[d] = base[d]
				w *= 1 - frac[d]
			}
		}
		if w == 0 {
			continue
		}
		out = append(out, corner{idx: idx, weight: w})
	}
	return out
}

// offsetDeep returns the offset in buf of the global grid index gidx and
// whether gidx falls within f's local DOMAIN extended by depth[d] ghost
// points per side, clamped to the allocated halo (nil depth means the
// owned box only). buf is one of f's buffers.
func offsetDeep(f *field.Function, buf *field.Buffer, gidx []int, depth []int) (int, bool) {
	off := 0
	for d, g := range gidx {
		ext := 0
		if depth != nil {
			// The caller may pass an operator-wide depth wider than this
			// field's own ghost region.
			ext = min(depth[d], f.Halo[d])
		}
		l := g - f.Origin[d]
		if l < -ext || l >= f.LocalShape[d]+ext {
			return 0, false
		}
		off += (l + f.Halo[d]) * buf.Strides[d]
	}
	return off, true
}

// Inject scatter-adds vals[p] * weight into time buffer t of f at the
// support corners of every point. Under a decomposition, each rank applies
// only the contributions landing on grid points it owns, so the global
// update is applied exactly once regardless of how many ranks share the
// point's cell (paper Fig. 3 ownership).
func (s *SparseFunction) Inject(f *field.Function, t int, vals []float32) error {
	return s.InjectDeep(f, t, vals, nil)
}

// InjectDeep is Inject extended to the ghost region: contributions are
// additionally applied to the rank's local *copies* of neighbour-owned
// points up to depth[d] ghost points per side. Every rank computes the
// identical float32 contribution from the globally known coordinates and
// values, so the owned copy and every ghost copy of a grid point receive
// bit-identical updates — the invariant communication-avoiding time
// tiling needs for its redundant shell recompute to reproduce the
// neighbour's post-injection data exactly. nil depth is plain owned-only
// injection.
func (s *SparseFunction) InjectDeep(f *field.Function, t int, vals []float32, depth []int) error {
	if len(vals) != s.NPoints() {
		return fmt.Errorf("sparse: %d values for %d points", len(vals), s.NPoints())
	}
	buf := f.Buf(t)
	for p, sup := range s.supports {
		for _, c := range sup {
			if off, ok := offsetDeep(f, buf, c.idx, depth); ok {
				buf.Data[off] += float32(c.weight) * vals[p]
			}
		}
	}
	return nil
}

// Interpolate reads time buffer t of f at every sparse point. Each rank
// sums the contributions of the support corners it owns; when comm is
// non-nil the partial sums are combined with an all-reduce so every rank
// returns the complete values. The result does not depend on halo
// freshness: only owned data is read. With a nil comm it is the rank's
// partial sums, which a caller sampling every step keeps in one table
// and all-reduces once, as the propagators' forward and backward do.
func (s *SparseFunction) Interpolate(f *field.Function, t int, comm *mpi.Comm) []float64 {
	partial := make([]float64, s.NPoints())
	buf := f.Buf(t)
	for p, sup := range s.supports {
		sum := 0.0
		for _, c := range sup {
			if off, ok := offsetDeep(f, buf, c.idx, nil); ok {
				sum += c.weight * float64(buf.Data[off])
			}
		}
		partial[p] = sum
	}
	if comm == nil || comm.Size() == 1 {
		return partial
	}
	return comm.Allreduce(partial, mpi.OpSum)
}

// RickerWavelet generates the classic seismic source signature with peak
// frequency f0 (Hz) centred at t0 (s), sampled nt times at interval dt.
func RickerWavelet(f0, t0, dt float64, nt int) []float32 {
	out := make([]float32, nt)
	for i := 0; i < nt; i++ {
		t := float64(i)*dt - t0
		a := math.Pi * f0 * t
		a *= a
		out[i] = float32((1 - 2*a) * math.Exp(-a))
	}
	return out
}
