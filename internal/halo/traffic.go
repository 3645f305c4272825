package halo

import (
	"devigo/internal/field"
	"devigo/internal/mpi"
)

// Traffic returns the per-timestep communication volume one exchanged
// field stream generates under a mode, for a rank owning a local box of
// the given shape with ghost width points per side: the number of
// point-to-point messages posted and the byte volume shipped (float32
// payload). All modes exchange the same *union* of data — the full halo
// shell around the owned box — but package the shell differently:
//
//   - basic ships 6 fat slabs in 3-D (2 messages per dimension, with the
//     corner regions forwarded transitively by the dimension sweep);
//   - diagonal and full post the whole {-1,0,1}^n neighbourhood at once
//     (26 thinner messages in 3-D), trading message count for a single
//     communication phase (and, for full, asynchrony).
//
// Performance models (package perfmodel, both the paper scenarios and the
// runtime autotuner) consume these numbers so that modelled bytes-moved
// stays consistent with what the exchangers actually send.
func Traffic(mode Mode, local []int, width int) (msgs int, bytes float64) {
	if mode == ModeNone || width <= 0 {
		return 0, 0
	}
	outer, inner := 1.0, 1.0
	for d := range local {
		outer *= float64(local[d]) + 2*float64(width)
		inner *= float64(local[d])
	}
	bytes = 4 * (outer - inner)
	switch mode {
	case ModeBasic:
		msgs = 2 * len(local)
	case ModeDiagonal, ModeFull:
		msgs = 1
		for range local {
			msgs *= 3
		}
		msgs--
	}
	return msgs, bytes
}

// RankTraffic is the exact per-exchange traffic of the rank that owns f in
// a Cartesian world, at ghost depth depth[d] per dimension (nil: the full
// allocated width): one message per neighbour the rank has
// (cart.Neighbor(offset) is not ProcNull) and the bytes of the regions it
// sends them — what the mode's exchanger posts. A rank with its whole
// neighbourhood (any rank of a periodic world) sends Traffic's message
// count and the whole anisotropic shell prod(local[d]+2*depth[d]) -
// prod(local[d]); a rank on a non-periodic boundary sends less of both.
// The obs subsystem's measured counters must equal this exactly — the
// differential suite enforces it.
func RankTraffic(mode Mode, cart *mpi.CartComm, f *field.Function, depth []int) (msgs int, bytes float64) {
	nd := f.NDims()
	send := func(offset []int, includeHalo []bool) {
		if cart.Neighbor(offset) != mpi.ProcNull {
			msgs++
			bytes += 4 * float64(f.SendRegionDepth(offset, includeHalo, depth).Size())
		}
	}
	switch mode {
	case ModeBasic:
		includeHalo := make([]bool, nd) // dimensions already swept
		for d := 0; d < nd; d++ {
			for _, s := range []int{-1, 1} {
				offset := make([]int, nd)
				offset[d] = s
				send(offset, includeHalo)
			}
			includeHalo[d] = true
		}
	case ModeDiagonal, ModeFull:
		for _, o := range mpi.NeighborOffsets(nd) {
			send(o, nil)
		}
	}
	return msgs, bytes
}

// AmortizedTraffic reports the steady-state per-timestep communication of
// communication-avoiding time tiling: `streams` (field, time-offset)
// pairs, each exchanged at ghost depth `width` once every k timesteps.
// Message count divides by k — the latency win the deep halo buys — while
// bytes stay roughly level (the exchanged shell is ~k times thicker but
// shipped 1/k as often, modulo corner growth). k < 1 is treated as 1.
func AmortizedTraffic(mode Mode, local []int, width, k, streams int) (msgsPerStep, bytesPerStep float64) {
	if k < 1 {
		k = 1
	}
	msgs, bytes := Traffic(mode, local, width)
	msgsPerStep = float64(msgs*streams) / float64(k)
	bytesPerStep = bytes * float64(streams) / float64(k)
	return msgsPerStep, bytesPerStep
}
