package propagators

import (
	"bytes"
	"encoding/json"
	"testing"

	"devigo/internal/halo"
	"devigo/internal/obs"
)

// TestTTIFullOverlapsScratchCluster pins the executor to the tree under
// the full pattern for a CIRE schedule: the lowered IET (and the generated
// source) wrap the scratch cluster in an OverlapSection, so its exchange
// (of p and q, the only per-step exchanges: the main cluster reads the
// redundantly recomputed scratch) must be posted before and completed
// after a CORE compute span on every halo stream of the step, and the
// overlapped sweep must leave the norm bit-identical to the blocking modes.
func TestTTIFullOverlapsScratchCluster(t *testing.T) {
	shape, topo := []int{64, 64}, []int{2, 1}
	const so, nt = 8, 4
	want, _ := runDMP(t, "tti", shape, topo, halo.ModeDiagonal, so, nt)
	if basic, _ := runDMP(t, "tti", shape, topo, halo.ModeBasic, so, nt); basic != want {
		t.Errorf("basic norm %v != diag norm %v", basic, want)
	}

	obs.Reset()
	obs.EnableTracing()
	got, _ := runDMP(t, "tti", shape, topo, halo.ModeFull, so, nt)
	obs.DisableAll()
	defer obs.Reset()
	if got != want {
		t.Errorf("full norm %v != diag norm %v (overlap must be bit-exact)", got, want)
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
	if len(streams) < 2 {
		t.Fatalf("step %d shows %d halo streams on rank 0, want p and q", step, len(streams))
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
