package halo

import "devigo/internal/field"

// Traffic returns the per-timestep communication volume one exchanged
// field part generates under a mode, for a rank that has all its
// neighbours and owns a local box of the given shape with ghost width
// points per side: the number of point-to-point messages posted and the
// byte volume shipped (float32 payload) — Exchanger.Traffic where there
// is no field to build a table on, summed over the same message
// enumeration. All modes exchange the same *union* of data — the full halo
// shell around the owned box — but package the shell differently:
//
//   - basic ships 6 fat slabs in 3-D (2 messages per dimension, with the
//     corner regions forwarded transitively by the dimension sweep);
//   - diagonal and full post the whole {-1,0,1}^n neighbourhood at once
//     (26 thinner messages in 3-D), trading message count for a single
//     communication phase (and, for full, asynchrony).
//
// The cost model (perfmodel's Host.Predict, which prices both the paper's
// clusters and the runtime autotuner's candidates) consumes these numbers
// through AmortizedTraffic.
func Traffic(mode Mode, local []int, width int) (msgs int, bytes float64) {
	if width <= 0 {
		return 0, 0
	}
	halo := make([]int, len(local))
	for d := range halo {
		halo[d] = width
	}
	for _, phase := range messages(mode, len(local)) {
		msgs += len(phase)
		for _, m := range phase {
			bytes += 4 * float64(field.Slab(local, halo, m.offset, m.includeHalo, nil, false).Size())
		}
	}
	return msgs, bytes
}

// AmortizedTraffic reports the steady-state per-timestep communication of
// communication-avoiding time tiling: one exchange of `streams` (field,
// time-offset) parts, each at ghost depth `width`, once every k timesteps.
// The parts share one message per neighbour, so messages do not grow with
// streams and divide by k — the latency win the deep halo buys — while
// bytes grow with streams and stay roughly level in k (the exchanged shell
// is ~k times thicker but shipped 1/k as often, modulo corner growth).
// k < 1 is treated as 1.
func AmortizedTraffic(mode Mode, local []int, width, k, streams int) (msgsPerStep, bytesPerStep float64) {
	if k < 1 {
		k = 1
	}
	msgs, bytes := Traffic(mode, local, width)
	return float64(msgs) / float64(k), bytes * float64(streams) / float64(k)
}
