package ir

// This file implements the schedule-level analysis behind
// communication-avoiding time tiling: run k consecutive timesteps between
// halo exchanges, exchanging a deep ghost region (width ~ k*radius) once
// per tile and redundantly recomputing the shrinking ghost shell locally.
// Results are bit-exact versus k=1 because the shell recompute evaluates
// the identical per-point expressions on identical data — the owned region
// of every rank holds exactly the k=1 values after every substep.
//
// The shell schedule generalises to multi-cluster (multi-field) timesteps:
// with clusters i = 0..C-1 of per-dimension radii r_i[d], one timestep
// consumes Stride[d] = sum_i r_i[d] points of shell, and cluster i of
// substep j (0-based within the tile) computes over the owned box extended
// by
//
//	e_{j,i}[d] = (k-1-j)*Stride[d] + Tails[i][d],
//	Tails[i][d] = sum_{i'>i} r_{i'}[d].
//
// Every read of cluster i at substep j is then covered: a field written by
// an earlier cluster of the same substep is valid Tails-deep enough to
// supply the reader's radius, and a field written during the previous
// substep is one full Stride deeper. The shell of the last cluster of the
// last substep is zero — exactly the owned box, so no redundant work
// remains when the tile ends.

// TilePlan is a legal exchange-interval schedule for one compiled
// operator: the shell geometry of every (substep, cluster) pair plus the
// tile-start exchange set.
type TilePlan struct {
	// K is the exchange interval: halos are exchanged once every K
	// timesteps. K >= 2 (a plan is only produced for real tiling).
	K int
	// Stride is the per-dimension shell consumption of one timestep: the
	// summed stencil radii of all clusters.
	Stride []int
	// Tails[i] is the per-dimension shell a cluster later than step i still
	// has to consume within the same timestep.
	Tails [][]int
	// Halos is the tile-start exchange set: every (field, time offset
	// relative to the tile's first step) whose buffer content predates the
	// tile and is read during it. This includes centred reads of older time
	// levels (e.g. u[t-1] of a second-order scheme) that a k=1 schedule
	// never exchanges.
	Halos []HaloReq
	// Hoisted is the once-per-run exchange set of time-invariant parameter
	// fields the shell recompute reads but the k=1 schedule never
	// exchanges (centre-only reads, e.g. the squared slowness m: a k=1
	// sweep touches only its owned points, a ghost-shell sweep does not).
	// Fields already hoisted by the schedule's own preamble are excluded.
	Hoisted []HaloReq
	// Depth is the exchanged ghost width per field per dimension — how deep
	// the tile-start (or preamble) exchange must fill the halo so substep-0
	// shells can read it.
	Depth map[string][]int
	// Alloc is the required allocated ghost width per field per dimension:
	// at least Depth, and wide enough to hold shell writes.
	Alloc map[string][]int
}

// MaxDepth returns the widest exchanged ghost width over all fields and
// dimensions — the deep-halo figure performance models use.
func (p *TilePlan) MaxDepth() int {
	w := 0
	for _, ds := range p.Depth {
		for _, d := range ds {
			if d > w {
				w = d
			}
		}
	}
	return w
}

// PlanTimeTile analyses a schedule for exchange-interval-k execution. It
// returns the plan, or nil with a human-readable reason when the schedule
// cannot legally tile (the operator then falls back to k=1):
//
//   - k < 2, or the schedule performs no stencil reads at all (nothing to
//     amortize);
//   - CIRE scratch clusters are present (their extended-box recompute
//     interleaves with the shell geometry; hasScratch gates this);
//   - a time-varying field is written by more than one cluster or at more
//     than one time offset (the shell validity argument assumes a unique
//     writer per field).
//
// Chunk-size and allocation feasibility are the caller's concern: the plan
// reports the required Depth/Alloc and the caller picks the largest k that
// fits its decomposition.
func PlanTimeTile(s *Schedule, k int, isTimeField func(string) bool, hasScratch bool) (*TilePlan, string) {
	if k < 2 {
		return nil, "exchange interval < 2"
	}
	if hasScratch {
		return nil, "CIRE scratch clusters present"
	}
	nd := s.NDims
	c := len(s.Steps)
	if c == 0 {
		return nil, "empty schedule"
	}

	// Per-step radii, the per-timestep stride and the per-step tails.
	stride := make([]int, nd)
	tails := make([][]int, c)
	for i := c - 1; i >= 0; i-- {
		tails[i] = append([]int(nil), stride...)
		for d := 0; d < nd; d++ {
			stride[d] += s.Steps[i].Cluster.Radius[d]
		}
	}
	anyStride := false
	for d := 0; d < nd; d++ {
		if stride[d] > 0 {
			anyStride = true
		}
	}
	if !anyStride {
		return nil, "schedule has no stencil reads"
	}

	// Unique-writer check for time-varying fields.
	writer := map[string]int{} // field -> write time offset
	wcount := map[string]int{} // field -> writing cluster count
	for _, st := range s.Steps {
		for f, off := range st.Cluster.Writes {
			if !isTimeField(f) {
				continue
			}
			if prev, ok := writer[f]; ok && prev != off {
				return nil, "field " + f + " written at two time offsets"
			}
			writer[f] = off
			wcount[f]++
		}
	}
	for f, n := range wcount {
		if n > 1 {
			return nil, "field " + f + " written by multiple clusters"
		}
	}

	plan := &TilePlan{
		K:      k,
		Stride: stride,
		Tails:  tails,
		Depth:  map[string][]int{},
		Alloc:  map[string][]int{},
	}

	// Required exchange depth per field: the deepest substep-0 shell of any
	// reading cluster plus that cluster's read radius of the field.
	for i, st := range s.Steps {
		for f, rr := range st.Cluster.ReadRadius {
			depth, ok := plan.Depth[f]
			if !ok {
				depth = make([]int, nd)
				plan.Depth[f] = depth
			}
			for d := 0; d < nd; d++ {
				e0 := (k-1)*stride[d] + tails[i][d]
				depth[d] = max(depth[d], e0+rr[d])
			}
		}
	}
	// Allocation: exchange depth, widened to hold the writer's substep-0
	// shell writes.
	for f, depth := range plan.Depth {
		plan.Alloc[f] = append([]int(nil), depth...)
	}
	for i, st := range s.Steps {
		for f := range st.Cluster.Writes {
			alloc, ok := plan.Alloc[f]
			if !ok {
				alloc = make([]int, nd)
			}
			for d := 0; d < nd; d++ {
				alloc[d] = max(alloc[d], (k-1)*stride[d]+tails[i][d])
			}
			plan.Alloc[f] = alloc
		}
	}

	// Tile-start exchange set: for each time-varying field f read at time
	// offset o and written (if at all) at offset w, the buffers holding
	// pre-tile content are the offsets strictly between o (inclusive) and w
	// (exclusive) — {o, ..., 0} in practice for both forward (w=+1) and
	// reverse (w=-1) schedules. Fields never written in the loop but
	// time-varying are exchanged once per tile at every read offset;
	// time-invariant parameter fields stay in the hoisted preamble.
	seen := map[HaloReq]bool{}
	for _, st := range s.Steps {
		for f, offs := range st.Cluster.Reads {
			if !isTimeField(f) {
				continue
			}
			w, isWritten := writer[f]
			for o := range offs {
				switch {
				case !isWritten:
					seen[HaloReq{Field: f, TimeOff: o}] = true
				case o < w:
					for j := o; j < w; j++ {
						seen[HaloReq{Field: f, TimeOff: j}] = true
					}
				case o > w:
					for j := o; j > w; j-- {
						seen[HaloReq{Field: f, TimeOff: j}] = true
					}
				}
			}
		}
	}
	for h := range seen {
		// A written field whose reads are all supplied within the tile
		// needs no exchange but may still appear in Depth via a same-offset
		// read; the Halos list is what actually gets exchanged.
		plan.Halos = append(plan.Halos, h)
	}
	sortHaloReqs(plan.Halos)
	if len(plan.Halos) == 0 {
		return nil, "no per-timestep exchanges to amortize"
	}

	// Time-invariant parameters read anywhere (centre included) must have
	// valid ghosts for the shell recompute; those not already in the
	// schedule's preamble get a plan-level hoisted exchange.
	inPreamble := map[string]bool{}
	for _, h := range s.Preamble {
		inPreamble[h.Field] = true
	}
	writtenInLoop := map[string]bool{}
	for _, st := range s.Steps {
		for f := range st.Cluster.Writes {
			writtenInLoop[f] = true
		}
	}
	hoistSeen := map[string]bool{}
	for _, st := range s.Steps {
		for f := range st.Cluster.Reads {
			if isTimeField(f) || writtenInLoop[f] || inPreamble[f] || hoistSeen[f] {
				continue
			}
			hoistSeen[f] = true
			plan.Hoisted = append(plan.Hoisted, HaloReq{Field: f, TimeOff: 0})
		}
	}
	sortHaloReqs(plan.Hoisted)
	return plan, ""
}
