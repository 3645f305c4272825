package perfmodel

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"devigo/internal/halo"
)

func serialProfile(rows int) OpProfile {
	return OpProfile{
		LocalShape:      []int{rows, rows},
		InstrsPerPoint:  40,
		StreamsPerPoint: 4,
		Ranks:           1,
		MaxWorkers:      8,
		Mode:            halo.ModeNone,
		TileRows:        8,
	}
}

func dmpProfile(rows int) OpProfile {
	p := serialProfile(rows)
	p.Ranks = 4
	p.Mode = halo.ModeDiagonal
	p.HaloStreams = 1
	p.HaloWidth = 4
	return p
}

func TestCandidatesSerialHaveSingleMode(t *testing.T) {
	for _, c := range Candidates(serialProfile(128)) {
		if c.Mode != halo.ModeNone {
			t.Fatalf("serial candidate has mode %v", c.Mode)
		}
	}
}

func TestCandidatesDistributedCoverAllModes(t *testing.T) {
	seen := map[halo.Mode]bool{}
	for _, c := range Candidates(dmpProfile(128)) {
		seen[c.Mode] = true
	}
	for _, m := range []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull} {
		if !seen[m] {
			t.Errorf("mode %v missing from distributed candidates", m)
		}
	}
}

func TestCandidatesRespectForcedKnobs(t *testing.T) {
	p := serialProfile(128)
	p.ForcedWorkers = 3
	p.TileRows = 11
	for _, c := range Candidates(p) {
		if c.Workers != 3 || c.TileRows != 11 {
			t.Fatalf("forced worker count / the operator's tile height not honoured: %v", c)
		}
	}
}

// The space is mode x workers x k: tile height is the operator's, not an
// axis (3 modes x {1, 2} workers x {1, 2, 4, 8} intervals on a 2-CPU host
// with the k-axis open).
func TestCandidatesSpaceHasNoTileAxis(t *testing.T) {
	p := dmpProfile(128)
	p.MaxWorkers = 2
	p.MaxTimeTile = 8
	cands := Candidates(p)
	if len(cands) != 3*2*4 {
		t.Errorf("%d candidates, want 24", len(cands))
	}
	seen := map[ExecConfig]bool{}
	for _, c := range cands {
		if c.TileRows != p.TileRows {
			t.Errorf("candidate %v varies the tile height (operator's is %d)", c, p.TileRows)
		}
		if seen[c] {
			t.Errorf("candidate %v enumerated twice", c)
		}
		seen[c] = true
	}
}

func TestCandidatesWorkersBoundedByRowsAndCap(t *testing.T) {
	p := serialProfile(2) // only 2 outer rows
	for _, c := range Candidates(p) {
		if c.Workers > 2 {
			t.Errorf("worker count %d exceeds row count", c.Workers)
		}
	}
}

func TestPlanDeterministic(t *testing.T) {
	h := DefaultHost()
	p := dmpProfile(96)
	a, b := Plan(h, p), Plan(h, p)
	if len(a) == 0 {
		t.Fatal("empty plan")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPlanPrefersParallelOnLargeSerialGrids(t *testing.T) {
	h := DefaultHost()
	big := Plan(h, serialProfile(1024))
	if big[0].Workers < 2 {
		t.Errorf("1024^2 grid on 8 cores should plan parallel execution, got %v", big[0])
	}
	tiny := Plan(h, serialProfile(8))
	if tiny[0].Workers != 1 {
		t.Errorf("8^2 grid should not pay worker-pool overhead, got %v", tiny[0])
	}
}

func TestPredictFullModeBenefitsFromOverlap(t *testing.T) {
	// With communication dominating, full mode's overlap must beat the
	// synchronous diagonal pattern under the model.
	h := DefaultHost()
	h.MsgLatency = 1e-3 // force a comm-bound regime
	p := dmpProfile(256)
	diag := h.Predict(p, ExecConfig{Mode: halo.ModeDiagonal, Workers: 1, TileRows: 8})
	full := h.Predict(p, ExecConfig{Mode: halo.ModeFull, Workers: 1, TileRows: 8})
	if full >= diag {
		t.Errorf("comm-bound full (%g) should beat diag (%g)", full, diag)
	}
}

func TestTunePicksMeasuredMinimum(t *testing.T) {
	h := DefaultHost()
	p := serialProfile(128)
	// Synthetic ground truth that disagrees with the model: the *last*
	// configuration the search will measure (a serial plan has a single
	// group, so the measured set is the group head plus
	// DefaultSearchTrials refinements in rank order) is declared fastest.
	// Tune must believe the measurement, not the model.
	plan := Plan(h, p)
	short := 1 + DefaultSearchTrials
	if short > len(plan) {
		short = len(plan)
	}
	target := plan[short-1]
	measure := func(c ExecConfig) (float64, error) {
		if c == target {
			return 0.1, nil
		}
		return 1.0, nil
	}
	cfg, trials, err := Tune(h, p, measure)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != short {
		t.Fatalf("expected %d trials, got %d", short, len(trials))
	}
	if cfg != target {
		t.Fatalf("tune ignored the measured minimum %v, picked %v", target, cfg)
	}
}

func TestTuneSpansGroupsThenRefinesWinner(t *testing.T) {
	// A distributed profile with the k-axis open has six qualitative
	// groups (3 modes x tiled-or-not). Declare a group the model ranks
	// LAST the true winner: phase 1 must still measure it (one head per
	// group), and phase 2 must refine within it.
	h := DefaultHost()
	p := tileProfile()
	p.MaxWorkers = 2 // two worker counts: every group has something to refine
	plan := Plan(h, p)
	heads := groupHeads(plan)
	if len(heads) != 6 {
		t.Fatalf("expected 6 group heads, got %d (%v)", len(heads), heads)
	}
	target := heads[len(heads)-1]
	measure := func(c ExecConfig) (float64, error) {
		if groupOf(c) == groupOf(target) {
			return 0.1, nil
		}
		return 1.0, nil
	}
	cfg, trials, err := Tune(h, p, measure)
	if err != nil {
		t.Fatal(err)
	}
	if groupOf(cfg) != groupOf(target) {
		t.Fatalf("tune missed the winning group %v, picked %v", target, cfg)
	}
	refined := 0
	for _, tr := range trials[len(heads):] {
		if groupOf(tr.Config) != groupOf(target) {
			t.Errorf("phase-2 trial %v outside the winning group", tr.Config)
		}
		refined++
	}
	if refined == 0 {
		t.Error("no phase-2 refinement trials ran")
	}
}

func TestTuneBudgetExhaustedFallsBackToModel(t *testing.T) {
	h := DefaultHost()
	p := serialProfile(128)
	plan := Plan(h, p)
	cfg, trials, err := Tune(h, p, func(ExecConfig) (float64, error) {
		return 0, ErrTuneBudget
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 0 {
		t.Fatalf("expected no trials, got %v", trials)
	}
	if cfg != plan[0] {
		t.Errorf("budget fallback should be the model's top choice %v, got %v", plan[0], cfg)
	}
}

func TestTunePartialBudgetKeepsBestMeasurement(t *testing.T) {
	h := DefaultHost()
	p := serialProfile(128)
	n := 0
	cfg, trials, err := Tune(h, p, func(c ExecConfig) (float64, error) {
		n++
		if n > 2 {
			return 0, ErrTuneBudget
		}
		return float64(3 - n), nil // second trial is faster
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 2 {
		t.Fatalf("expected 2 trials, got %d", len(trials))
	}
	if cfg != trials[1].Config {
		t.Errorf("expected the second (faster) trial %v, got %v", trials[1].Config, cfg)
	}
}

func TestTunePropagatesMeasureErrors(t *testing.T) {
	h := DefaultHost()
	boom := errors.New("boom")
	_, _, err := Tune(h, serialProfile(64), func(ExecConfig) (float64, error) {
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("expected measure error to propagate, got %v", err)
	}
}

func TestTrafficConsistency(t *testing.T) {
	// The scenario model and the autotuner share halo.Traffic; sanity-check
	// the shapes here so a regression surfaces in this package too.
	local := []int{64, 64, 64}
	mb, bb := halo.Traffic(halo.ModeBasic, local, 4)
	md, bd := halo.Traffic(halo.ModeDiagonal, local, 4)
	if mb != 6 || md != 26 {
		t.Errorf("3-D message counts: basic=%d diag=%d, want 6/26", mb, md)
	}
	if bb != bd {
		t.Errorf("both modes ship the same shell: %g vs %g", bb, bd)
	}
	if bb <= 0 {
		t.Errorf("shell bytes must be positive, got %g", bb)
	}
	if m, b := halo.Traffic(halo.ModeNone, local, 4); m != 0 || b != 0 {
		t.Errorf("mode none must be free, got %d msgs %g bytes", m, b)
	}
}

func TestExecConfigString(t *testing.T) {
	c := ExecConfig{Mode: halo.ModeFull, Workers: 4, TileRows: 16}
	if got, want := c.String(), "full/w4/t16"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if fmt.Sprint(c) != c.String() {
		t.Error("fmt should use String()")
	}
}

// The pool-sync term is a fixed per-launch cost: charged exactly once for
// any multi-worker configuration, never for serial ones. This is the knob
// the operator overrides with the measured dispatch cost of its
// persistent worker pool.
func TestPredictPoolSyncChargedOncePerLaunch(t *testing.T) {
	h := DefaultHost()
	p := serialProfile(1024)
	par := ExecConfig{Workers: 4, TileRows: 8}
	ser := ExecConfig{Workers: 1, TileRows: 8}
	basePar, baseSer := h.Predict(p, par), h.Predict(p, ser)
	h.PoolSync += 0.5
	if got := h.Predict(p, par) - basePar; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("PoolSync delta charged %g times, want exactly once", got/0.5)
	}
	if got := h.Predict(p, ser); got != baseSer {
		t.Errorf("serial prediction moved with PoolSync: %g -> %g", baseSer, got)
	}
}

// A prohibitive sync cost must push even large grids back to serial: the
// planner believes the measured dispatch cost, whatever it is.
func TestPlanProhibitivePoolSyncForcesSerial(t *testing.T) {
	h := DefaultHost()
	h.PoolSync = 1.0 // one full second per dispatch
	best := Plan(h, serialProfile(1024))[0]
	if best.Workers != 1 {
		t.Errorf("with PoolSync=1s the plan should be serial, got %v", best)
	}
}

// Bandwidth-bound profiles gain nothing from more workers: the memory leg
// of the roofline is shared across the team, so a wide team only adds sync
// cost and the most any plan can shave off the serial time is its share of
// the per-tile scheduling overhead.
func TestPredictSharedBandwidthCapsScaling(t *testing.T) {
	h := DefaultHost()
	p := serialProfile(1024)
	p.InstrsPerPoint = 1
	p.StreamsPerPoint = 4000
	w1 := h.Predict(p, ExecConfig{Workers: 1, TileRows: 8})
	w8 := h.Predict(p, ExecConfig{Workers: 8, TileRows: 8})
	if w8 <= w1 {
		t.Errorf("bandwidth-bound: 8 workers predicted faster (%g) than serial (%g)", w8, w1)
	}
	if best := Plan(h, p)[0]; h.Predict(p, best) < w1*(1-1e-4) {
		t.Errorf("bandwidth-bound: plan %v predicted %g, more than 0.01%% under serial's %g", best, h.Predict(p, best), w1)
	}
}
