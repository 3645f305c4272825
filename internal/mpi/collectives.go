package mpi

import "math"

// Collectives are built purely on point-to-point Send/Recv so they run
// unchanged over any Transport: a binomial-tree broadcast, a gather and
// a scatter through a root, and an allreduce that is a gather, a fold on
// rank 0 and a broadcast. A run reduces once, when it ends (its traces
// and its norm), and a tuner once per trial, never per step, so the
// allreduce takes the simplest bit-identical shape.

// collTagBase reserves the collective tag space. Every rank executes
// collectives in the same order, so per-rank sequence numbers agree
// across the communicator and collective traffic can never be confused
// with user messages.
const collTagBase = 1 << 30

func (c *Comm) collTag() int {
	t := collTagBase + c.collSeq
	c.collSeq++
	return t
}

// ReduceOp is a binary reduction operator.
type ReduceOp func(a, b float64) float64

// Predefined reduction operators.
var (
	OpSum = func(a, b float64) float64 { return a + b }
	OpMax = func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	OpMin = func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
)

// Allreduce reduces vals elementwise across all ranks with op and returns
// the result on every rank: rank 0 gathers the contributions (float64 bit
// patterns packed into float32 pairs), folds them in ascending rank order
// and broadcasts the result. The fixed fold order makes it bit-identical
// to a sequential rank-order fold on every transport and world shape —
// floating-point addition is not associative — and elements fold
// independently, so a flattened table reduces to the bits of its rows.
func (c *Comm) Allreduce(vals []float64, op ReduceOp) []float64 {
	out := append([]float64(nil), vals...)
	packed := make([]float32, 2*len(vals))
	packFloat64(vals, packed)
	var parts [][]float32
	if c.rank == 0 {
		parts = make([][]float32, c.size)
		for r := 1; r < c.size; r++ {
			parts[r] = make([]float32, len(packed))
		}
	}
	c.Gather(0, packed, parts)
	if c.rank == 0 {
		in := make([]float64, len(vals))
		for r := 1; r < c.size; r++ {
			unpackFloat64(parts[r], in)
			for i := range out {
				out[i] = op(out[i], in[i])
			}
		}
		packFloat64(out, packed)
	}
	c.Bcast(0, packed)
	unpackFloat64(packed, out)
	return out
}

// AllreduceScalar is Allreduce for a single value.
func (c *Comm) AllreduceScalar(v float64, op ReduceOp) float64 {
	return c.Allreduce([]float64{v}, op)[0]
}

// Bcast broadcasts buf from root to all ranks over a binomial tree:
// log2(n) rounds instead of the previous root-sends-to-everyone star,
// and nothing but point-to-point messages.
func (c *Comm) Bcast(root int, buf []float32) {
	tag := c.collTag()
	if c.size == 1 {
		return
	}
	rel := (c.rank - root + c.size) % c.size
	mask := 1
	for mask < c.size {
		if rel&mask != 0 {
			src := (rel - mask + root) % c.size
			c.Recv(src, tag, buf)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < c.size {
			dst := (rel + mask + root) % c.size
			c.Send(dst, tag, buf)
		}
		mask >>= 1
	}
}

// Gather collects each rank's contribution on root; parts[r] receives rank
// r's data (only meaningful on root, where parts must have size entries
// with adequate capacity). Every rank passes its local data.
func (c *Comm) Gather(root int, local []float32, parts [][]float32) {
	tag := c.collTag()
	if c.rank == root {
		for r := 0; r < c.size; r++ {
			if r == root {
				copy(parts[r], local)
				continue
			}
			c.Recv(r, tag, parts[r])
		}
		return
	}
	c.Send(root, tag, local)
}

// Scatter is the inverse of Gather: root sends parts[r] to rank r, and
// every rank receives its part into local (parts is only read on root).
func (c *Comm) Scatter(root int, parts [][]float32, local []float32) {
	tag := c.collTag()
	if c.rank == root {
		for r := 0; r < c.size; r++ {
			if r == root {
				copy(local, parts[r])
				continue
			}
			c.Send(r, tag, parts[r])
		}
		return
	}
	c.Recv(root, tag, local)
}

// packFloat64 stores float64 bit patterns into pairs of float32 slots
// losslessly (bit reinterpretation, not value conversion).
func packFloat64(src []float64, dst []float32) {
	for i, v := range src {
		bits := math.Float64bits(v)
		dst[2*i] = math.Float32frombits(uint32(bits >> 32))
		dst[2*i+1] = math.Float32frombits(uint32(bits))
	}
}

func unpackFloat64(src []float32, dst []float64) {
	for i := range dst {
		hi := uint64(math.Float32bits(src[2*i]))
		lo := uint64(math.Float32bits(src[2*i+1]))
		dst[i] = math.Float64frombits(hi<<32 | lo)
	}
}
