package propagators

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"devigo/internal/halo"
	"devigo/internal/iet"
	"devigo/internal/obs"
)

// TestTTIFullOverlapsScratchCluster pins the executor to the tree under
// the full pattern for a CIRE schedule: the lowered IET (and the generated
// source) wrap the scratch cluster in an OverlapSection, so its exchange
// (of p and q, the only per-step exchange: the main cluster reads the
// redundantly recomputed scratch) must be one exchanger — one halo stream
// sending one message per neighbour with both fields' slabs — posted
// before and completed after a CORE compute span, and the overlapped sweep
// must leave the norm bit-identical to the blocking modes.
func TestTTIFullOverlapsScratchCluster(t *testing.T) {
	shape, topo := []int{64, 64}, []int{2, 1}
	const so, nt = 8, 4
	want, _ := runDMP(t, "tti", shape, topo, halo.ModeDiagonal, so, nt)
	if basic, _ := runDMP(t, "tti", shape, topo, halo.ModeBasic, so, nt); basic != want {
		t.Errorf("basic norm %v != diag norm %v", basic, want)
	}

	obs.Reset()
	obs.EnableTracing()
	res := rank0(t, "tti", shape, topo, halo.ModeFull, so, RunConfig{NT: nt, NReceivers: 4})
	obs.DisableAll()
	defer obs.Reset()
	if res.Norm != want {
		t.Errorf("full norm %v != diag norm %v (overlap must be bit-exact)", res.Norm, want)
	}

	// The overlapped sweep names p and q, and rank 0's one neighbour gets
	// one message per step carrying both fields' slabs.
	var overlapped []string
	iet.Walk(res.Op.Tree, func(n iet.Node) {
		if o, ok := n.(iet.OverlapSection); ok {
			for _, h := range o.Update.Fields {
				overlapped = append(overlapped, fmt.Sprintf("%s@%d", h.Field, h.TimeOff))
			}
		}
	})
	slices.Sort(overlapped)
	if !slices.Equal(overlapped, []string{"p@0", "q@0"}) {
		t.Errorf("the overlapped sweep exchanges %v, want p and q", overlapped)
	}
	slab := 0
	for _, name := range []string{"p", "q"} {
		slab += res.Op.Fields[name].SendRegionDepth([]int{1, 0}, nil, nil).Size()
	}
	if st := res.Op.CommStats(); st.MsgsPerStep != 1 || st.BytesPerStep != float64(4*slab) {
		t.Errorf("rank 0 sends %v messages of %v bytes per step, want 1 of %d (p's and q's slabs)",
			st.MsgsPerStep, st.BytesPerStep, 4*slab)
	}

	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph, Name string
			Pid, Tid int
			Ts, Dur  float64
			Args     struct{ Step int }
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// Rank 0, one steady step: per halo stream, when its last send ended
	// and its first wait began; and the time-loop track's compute spans.
	const step = 2
	type window struct{ posted, waited float64 }
	streams := map[int]*window{}
	var computes [][2]float64
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Pid != 0 || e.Args.Step != step {
			continue
		}
		if e.Tid == 0 {
			if e.Name == "compute" {
				computes = append(computes, [2]float64{e.Ts, e.Ts + e.Dur})
			}
			continue
		}
		w := streams[e.Tid]
		if w == nil {
			w = &window{waited: -1}
			streams[e.Tid] = w
		}
		switch e.Name {
		case "send":
			w.posted = max(w.posted, e.Ts+e.Dur)
		case "wait":
			if w.waited < 0 || e.Ts < w.waited {
				w.waited = e.Ts
			}
		}
	}
	if len(streams) != 1 {
		t.Fatalf("step %d shows %d halo streams on rank 0, want one for p and q", step, len(streams))
	}
	for tid, w := range streams {
		overlapped := false
		for _, c := range computes {
			if c[0] >= w.posted && c[1] <= w.waited {
				overlapped = true
			}
		}
		if !overlapped {
			t.Errorf("halo stream %d: no compute span between its post (%.1fus) and its wait (%.1fus) — exchange not overlapped",
				tid-1, w.posted, w.waited)
		}
	}
}
