package mpi

import (
	"fmt"
)

// CartComm is a Cartesian communicator: the world's ranks arranged on an
// n-dimensional process grid, with neighbour lookup including the full
// 26-neighbourhood required by the diagonal and full exchange patterns.
type CartComm struct {
	*Comm
	Dims    []int
	Periods []bool
	coords  []int
}

// CartCreate arranges the communicator on a process grid. dims must tile
// the communicator size exactly; pass the result of grid.DimsCreate for the
// MPI default behaviour. periods may be nil (all false).
func CartCreate(c *Comm, dims []int, periods []bool) (*CartComm, error) {
	prod := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("mpi: invalid Cartesian dims %v", dims)
		}
		prod *= d
	}
	if prod != c.size {
		return nil, fmt.Errorf("mpi: dims %v do not tile %d ranks", dims, c.size)
	}
	if periods == nil {
		periods = make([]bool, len(dims))
	}
	if len(periods) != len(dims) {
		return nil, fmt.Errorf("mpi: periods rank mismatch")
	}
	cc := &CartComm{
		Comm:    c,
		Dims:    append([]int(nil), dims...),
		Periods: append([]bool(nil), periods...),
	}
	cc.coords = cc.CoordsOf(c.rank)
	return cc, nil
}

// Coords returns the calling rank's coordinates.
func (c *CartComm) Coords() []int { return append([]int(nil), c.coords...) }

// CoordsOf decodes any rank into coordinates (first dimension slowest).
func (c *CartComm) CoordsOf(rank int) []int {
	nd := len(c.Dims)
	coords := make([]int, nd)
	for d := nd - 1; d >= 0; d-- {
		coords[d] = rank % c.Dims[d]
		rank /= c.Dims[d]
	}
	return coords
}

// RankOf encodes coordinates into a rank, honouring periodicity; returns
// ProcNull when a non-periodic coordinate falls off the grid.
func (c *CartComm) RankOf(coords []int) int {
	rank := 0
	for d, v := range coords {
		if c.Periods[d] {
			v = ((v % c.Dims[d]) + c.Dims[d]) % c.Dims[d]
		} else if v < 0 || v >= c.Dims[d] {
			return ProcNull
		}
		rank = rank*c.Dims[d] + v
	}
	return rank
}

// Neighbor returns the rank at the given coordinate offset from the caller,
// or ProcNull outside the grid.
func (c *CartComm) Neighbor(offset []int) int {
	coords := make([]int, len(c.coords))
	for d := range coords {
		coords[d] = c.coords[d] + offset[d]
	}
	return c.RankOf(coords)
}

// NeighborOffsets enumerates every nonzero offset vector in {-1,0,1}^ndims
// — the 26-neighbourhood in 3-D, 8 in 2-D — in a deterministic order shared
// by all ranks, so a symmetric exchange can derive matching tags.
func NeighborOffsets(ndims int) [][]int {
	var out [][]int
	total := 1
	for i := 0; i < ndims; i++ {
		total *= 3
	}
	for code := 0; code < total; code++ {
		offset := make([]int, ndims)
		v := code
		zero := true
		for d := ndims - 1; d >= 0; d-- {
			offset[d] = v%3 - 1
			if offset[d] != 0 {
				zero = false
			}
			v /= 3
		}
		if !zero {
			out = append(out, offset)
		}
	}
	return out
}

// OffsetTag derives a deterministic message tag from an offset vector so a
// sender's tag for offset o matches the receiver's expectation for -o being
// its own offset towards the sender. The caller embeds a stream id to keep
// concurrent exchanges of different fields separate.
func OffsetTag(stream int, offset []int) int {
	code := 0
	for _, o := range offset {
		code = code*3 + (o + 1)
	}
	return stream<<8 | code
}
