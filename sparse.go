package devigo

import (
	"devigo/internal/mpi"
	"devigo/internal/sparse"
)

// SparseFunction is a set of off-grid points supporting injection into and
// interpolation from grid functions — the paper's sparse operator support
// (Section III-c): sources and receivers of wave propagators.
type SparseFunction struct {
	s    *sparse.SparseFunction
	grid *Grid
}

// NewSparseFunction registers npoint off-grid coordinates (physical units)
// against the grid.
func NewSparseFunction(name string, g *Grid, coords [][]float64) (*SparseFunction, error) {
	s, err := sparse.New(name, g.g, coords)
	if err != nil {
		return nil, err
	}
	return &SparseFunction{s: s, grid: g}, nil
}

// NPoints returns the number of sparse points.
func (s *SparseFunction) NPoints() int { return s.s.NPoints() }

// Inject scatter-adds vals (one per point, linearly distributed over the
// containing cell corners) into time buffer t of f. Under DMP each rank
// applies its owned contributions — and mirrors them into its ghost
// copies of neighbour-owned points, every rank computing the identical
// float32 contribution from the globally known coordinates, so the
// owned update still happens exactly once (paper Fig. 3) while
// communication-avoiding time tiling (DEVIGO_TIME_TILE) can redundantly
// recompute ghost shells bit-exactly. Ghost mirroring never changes
// owned values, so k=1 results are unaffected.
func (s *SparseFunction) Inject(f *Function, t int, vals []float32) error {
	if s.grid.ctx == nil {
		return s.s.Inject(f.f, t, vals)
	}
	return s.s.InjectDeep(f.f, t, vals, f.f.Halo)
}

// Interpolate reads time buffer t of f at every point; under DMP the
// partial sums are all-reduced so every rank receives complete values.
// On serial grids (no environment, or a world of one) no communicator
// is consulted, mirroring the nil-safe pattern of Function.Data.
func (s *SparseFunction) Interpolate(f *Function, t int) []float64 {
	var comm *mpi.Comm
	if c := s.grid.ctx; c != nil {
		comm = c.Comm
	}
	return s.s.Interpolate(f.f, t, comm)
}

// RickerWavelet generates the classic seismic source signature (peak
// frequency f0, centred at t0, nt samples spaced dt).
func RickerWavelet(f0, t0, dt float64, nt int) []float32 {
	return sparse.RickerWavelet(f0, t0, dt, nt)
}
