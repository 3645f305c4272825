package mpi

import "math"

// Collectives are built purely on point-to-point Send/Recv so they run
// unchanged over any Transport: a dissemination barrier, a binomial-tree
// broadcast and a recursive-doubling allreduce. The previous runtime
// implemented Barrier on a shared-memory generation counter and
// Allreduce as a rank-0 star — both in-process-only shapes; the
// replacements keep bit-identical results (the allreduce gathers every
// rank's contribution and folds in ascending rank order on every rank,
// exactly the fold the rank-0 star performed) while needing nothing but
// messages.

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

// Barrier blocks until every rank has entered it — a dissemination
// barrier: ceil(log2 n) rounds, each rank sending a token to
// (rank + 2^k) mod n and receiving one from (rank - 2^k) mod n. The
// round offsets are distinct modulo n, so a single collective tag
// suffices (sources differ per round).
func (c *Comm) Barrier() {
	if c.size == 1 {
		return
	}
	tag := c.collTag()
	for off := 1; off < c.size; off <<= 1 {
		dst := (c.rank + off) % c.size
		src := (c.rank - off + c.size) % c.size
		c.Send(dst, tag, nil)
		c.Recv(src, tag, nil)
	}
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
// the result on every rank. Every rank gathers all contributions via
// recursive doubling and folds them in ascending rank order, so the
// result is deterministic, identical everywhere, and bit-identical to a
// sequential rank-order fold regardless of the communication schedule —
// floating-point addition is not associative, so the gather-then-fold
// split is what keeps the checked-in BENCH norms stable across
// transports and world shapes.
func (c *Comm) Allreduce(vals []float64, op ReduceOp) []float64 {
	out := make([]float64, len(vals))
	copy(out, vals)
	if c.size == 1 {
		return out
	}
	table := c.allgather(vals)
	copy(out, table[0])
	for r := 1; r < c.size; r++ {
		for i := range out {
			out[i] = op(out[i], table[r][i])
		}
	}
	return out
}

// allgather collects every rank's contribution on every rank (indexed by
// rank) using recursive doubling over the largest power-of-two subset:
// ranks >= p2 first fold their contribution into a partner below p2,
// the subset doubles log2(p2) times, and the partners are paid back with
// the completed table. Messages carry float64 bit patterns packed into
// float32 pairs (see packFloat64) prefixed implicitly by position — the
// slot layout of every message is a deterministic function of the round,
// so no headers are needed.
func (c *Comm) allgather(vals []float64) [][]float64 {
	n := len(vals)
	tag := c.collTag()
	table := make([][]float64, c.size)
	own := make([]float64, n)
	copy(own, vals)
	table[c.rank] = own

	p2 := 1
	for p2*2 <= c.size {
		p2 *= 2
	}
	extra := c.size - p2 // ranks p2..size-1 piggyback on rank-p2 partners

	// slotsOf lists the initial slots participant i (a rank < p2) holds
	// after the bring-in phase: its own, plus its piggybacked partner's.
	slotsOf := func(i int) []int {
		s := []int{i}
		if i+p2 < c.size {
			s = append(s, i+p2)
		}
		return s
	}

	if c.rank >= p2 {
		// Bring-in: hand the contribution to the partner, then wait for
		// the completed table.
		c.sendSlots(c.rank-p2, tag, [][]float64{own})
		full := c.recvSlots(c.rank-p2, tag, c.size, n)
		copy(table, full)
		return table
	}
	if c.rank+p2 < c.size {
		in := c.recvSlots(c.rank+p2, tag, 1, n)
		table[c.rank+p2] = in[0]
	}

	// Recursive doubling among the p2 participants: after round k each
	// participant owns the slots of its aligned 2^(k+1)-participant
	// block; partner blocks are disjoint and their slot lists are
	// deterministic, so both sides know exactly what travels.
	for mask := 1; mask < p2; mask <<= 1 {
		partner := c.rank ^ mask
		base := c.rank &^ (2*mask - 1)
		var mine, theirs []int
		for i := base; i < base+2*mask; i++ {
			if (i & mask) == (c.rank & mask) {
				mine = append(mine, slotsOf(i)...)
			} else {
				theirs = append(theirs, slotsOf(i)...)
			}
		}
		send := make([][]float64, len(mine))
		for j, s := range mine {
			send[j] = table[s]
		}
		c.sendSlots(partner, tag, send)
		recv := c.recvSlots(partner, tag, len(theirs), n)
		for j, s := range theirs {
			table[s] = recv[j]
		}
	}
	if extra > 0 && c.rank+p2 < c.size {
		// Pay-back: ship the completed table to the piggybacked partner.
		c.sendSlots(c.rank+p2, tag, table)
	}
	return table
}

// sendSlots ships a list of equal-length float64 vectors as one packed
// message.
func (c *Comm) sendSlots(dst, tag int, vecs [][]float64) {
	var flat []float64
	for _, v := range vecs {
		flat = append(flat, v...)
	}
	buf := make([]float32, 2*len(flat))
	packFloat64(flat, buf)
	c.Send(dst, tag, buf)
}

// recvSlots receives count packed vectors of n float64s each.
func (c *Comm) recvSlots(src, tag, count, n int) [][]float64 {
	buf := make([]float32, 2*count*n)
	c.Recv(src, tag, buf)
	flat := make([]float64, count*n)
	unpackFloat64(buf, flat)
	out := make([][]float64, count)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
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
