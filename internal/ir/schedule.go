package ir

import "sort"

// BuildSchedule performs the halo-placement analysis over the ordered
// clusters, producing the schedule tree (paper Listing 4). The analysis is
// deliberately done in two stages mirroring the paper:
//
//  1. Detection (here, Cluster level): a conservative HaloSpot is attached
//     before every cluster for every field it reads at a nonzero offset.
//  2. Optimization (iet package): drop spots whose data is still clean,
//     hoist time-invariant exchanges out of the time loop, merge adjacent
//     spots.
//
// BuildSchedule performs only stage 1; the iet passes consume its output.
// isTimeField reports whether a field name varies over time (parameter
// fields are candidates for hoisting).
func BuildSchedule(clusters []*Cluster, ndims int, isTimeField func(string) bool) *Schedule {
	s := &Schedule{NDims: ndims}
	for _, c := range clusters {
		var halos []HaloReq
		for name, offs := range c.HaloReads {
			for off := range offs {
				halos = append(halos, HaloReq{Field: name, TimeOff: off})
			}
		}
		sortHaloReqs(halos)
		s.Steps = append(s.Steps, Step{Halos: halos, Cluster: c})
	}
	_ = isTimeField
	return s
}

// OptimizeSchedule runs the drop/hoist/merge passes over a schedule,
// returning the optimized form. It implements, at the IR level, the
// HaloSpot manipulation described in paper Section III-g:
//
//   - hoist: exchanges of time-invariant fields move to the preamble and
//     happen exactly once;
//   - drop: an exchange is dropped if the (field, timeOff) data cannot be
//     dirty — i.e. no write to that buffer happened since the last
//     exchange within the steady-state time iteration;
//   - merge: duplicate requirements within one step are deduplicated.
//
// The dirty analysis models the steady state of the time loop: at the top
// of an iteration every time-varying buffer written during an iteration is
// dirty (it was written by the previous iteration).
func OptimizeSchedule(s *Schedule, isTimeField func(string) bool) *Schedule {
	out := &Schedule{NDims: s.NDims}
	// Collect which (field) buffers are written anywhere in the loop body.
	writtenInLoop := map[string]bool{}
	for _, st := range s.Steps {
		for f := range st.Cluster.Writes {
			writtenInLoop[f] = true
		}
	}
	// Hoist: requirements on fields never written inside the loop and not
	// time-varying are satisfied once, before the loop.
	hoisted := map[string]bool{}
	var preamble []HaloReq
	// clean tracks (field|timeOff) pairs exchanged and not rewritten since,
	// within the current iteration. Time-varying buffers restart dirty each
	// iteration, so clean does not persist across the loop back-edge for
	// them; for hoisted fields it persists by construction.
	for _, st := range s.Steps {
		for _, h := range st.Halos {
			if !isTimeField(h.Field) && !writtenInLoop[h.Field] && !hoisted[h.Field] {
				preamble = append(preamble, HaloReq{Field: h.Field, TimeOff: 0})
				hoisted[h.Field] = true
			}
		}
	}
	sortHaloReqs(preamble)
	out.Preamble = preamble

	clean := map[HaloReq]bool{}
	for _, st := range s.Steps {
		var kept []HaloReq
		seen := map[HaloReq]bool{}
		for _, h := range st.Halos {
			if hoisted[h.Field] {
				continue // satisfied by the preamble forever (drop+hoist)
			}
			if clean[h] {
				continue // drop: still clean from an earlier step
			}
			if seen[h] {
				continue // merge: deduplicate within the step
			}
			seen[h] = true
			kept = append(kept, h)
			clean[h] = true
		}
		sortHaloReqs(kept)
		// Writes dirty the written buffer.
		for f, off := range st.Cluster.Writes {
			delete(clean, HaloReq{Field: f, TimeOff: off})
		}
		out.Steps = append(out.Steps, Step{Halos: kept, Cluster: st.Cluster})
	}
	return out
}

func sortHaloReqs(hs []HaloReq) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Field != hs[j].Field {
			return hs[i].Field < hs[j].Field
		}
		return hs[i].TimeOff < hs[j].TimeOff
	})
}

// String renders the schedule in the abbreviated form of paper Listing 4.
func (s *Schedule) String() string {
	out := ""
	for _, h := range s.Preamble {
		out += "|-- <Halo " + h.Field + ">\n"
	}
	out += "|-- time++\n"
	for _, st := range s.Steps {
		for _, h := range st.Halos {
			out += "    |-- <Halo " + h.Field + ">\n"
		}
		out += "    |-- x++ / y++ / ...\n"
		for _, e := range st.Cluster.Eqs {
			out += "        |-- [" + e.LHS.String() + " = ...]\n"
		}
	}
	return out
}
