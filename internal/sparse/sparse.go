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
type SparseFunction struct {
	Name   string
	Grid   *grid.Grid
	Coords [][]float64 // npoints x ndims, in physical units
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
	cp := make([][]float64, len(coords))
	for i, c := range coords {
		cp[i] = append([]float64(nil), c...)
	}
	return &SparseFunction{Name: name, Grid: g, Coords: cp}, nil
}

// NPoints returns the point count.
func (s *SparseFunction) NPoints() int { return len(s.Coords) }

// support enumerates the 2^nd grid corners of the cell containing point p
// with their bilinear/trilinear weights.
type corner struct {
	idx    []int
	weight float64
}

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

// ownsPoint reports whether the field's local DOMAIN contains the global
// grid index.
func ownsPoint(f *field.Function, gidx []int) bool {
	return ownsPointDeep(f, gidx, nil)
}

// ownsPointDeep reports whether the global grid index falls within the
// field's local DOMAIN extended by depth[d] ghost points per side (nil
// depth means the owned box only).
func ownsPointDeep(f *field.Function, gidx []int, depth []int) bool {
	for d, g := range gidx {
		ext := 0
		if depth != nil {
			ext = depth[d]
		}
		l := g - f.Origin[d]
		if l < -ext || l >= f.LocalShape[d]+ext {
			return false
		}
	}
	return true
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
	if depth != nil {
		// Clamp to the allocation: the caller may pass an operator-wide
		// depth wider than this field's own ghost region.
		clamped := make([]int, len(depth))
		for d := range depth {
			clamped[d] = depth[d]
			if d < len(f.Halo) && clamped[d] > f.Halo[d] {
				clamped[d] = f.Halo[d]
			}
		}
		depth = clamped
	}
	buf := f.Buf(t)
	for p := range s.Coords {
		for _, c := range s.support(p) {
			if !ownsPointDeep(f, c.idx, depth) {
				continue
			}
			idx := make([]int, len(c.idx))
			for d := range c.idx {
				idx[d] = c.idx[d] - f.Origin[d] + f.Halo[d]
			}
			off := buf.Index(idx)
			buf.Data[off] += float32(c.weight) * vals[p]
		}
	}
	return nil
}

// Interpolate reads time buffer t of f at every sparse point. Each rank
// sums the contributions of the support corners it owns; when comm is
// non-nil the partial sums are combined with an all-reduce so every rank
// returns the complete values. The result does not depend on halo
// freshness: only owned data is read.
func (s *SparseFunction) Interpolate(f *field.Function, t int, comm *mpi.Comm) []float64 {
	partial := make([]float64, s.NPoints())
	buf := f.Buf(t)
	for p := range s.Coords {
		sum := 0.0
		for _, c := range s.support(p) {
			if !ownsPoint(f, c.idx) {
				continue
			}
			idx := make([]int, len(c.idx))
			for d := range c.idx {
				idx[d] = c.idx[d] - f.Origin[d] + f.Halo[d]
			}
			sum += c.weight * float64(buf.Data[buf.Index(idx)])
		}
		partial[p] = sum
	}
	if comm == nil || comm.Size() == 1 {
		return partial
	}
	return comm.Allreduce(partial, mpi.OpSum)
}

// OwnerRanks returns, per point, the ranks whose DOMAIN intersects the
// point's support — the set of "involved ranks" of paper Fig. 3.
func (s *SparseFunction) OwnerRanks(dec *grid.Decomposition) [][]int {
	out := make([][]int, s.NPoints())
	for p := range s.Coords {
		seen := map[int]bool{}
		for _, c := range s.support(p) {
			r := dec.OwnerRank(c.idx)
			if !seen[r] {
				seen[r] = true
				out[p] = append(out[p], r)
			}
		}
	}
	return out
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
