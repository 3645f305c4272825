package propagators

import (
	"fmt"
	"math"
	"testing"

	"devigo/internal/core"
	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/obs"
)

// The obs/Traffic differential suite: the message and byte counters the
// obs subsystem measures at the exchangers must equal the halo.Traffic /
// halo.AmortizedTraffic predictions (the numbers CommStats and the
// performance models are built on) EXACTLY — not approximately — for
// every halo mode and exchange interval: on a fully periodic 2x2 world,
// where every rank is interior and CommStats equals the closed-form
// halo.Traffic figures, and on a non-periodic 2-rank world, where each
// rank has one neighbour and CommStats must count only that one. Counters,
// not physics, are under test.

// obsTrafficRun executes one run over a topo-shaped Cartesian world with
// obs metrics on and returns the world-total measured steady counters, the
// ranks' modelled CommStats summed (rank order) and the effective interval.
func obsTrafficRun(t *testing.T, model string, shape, topo []int, periodic bool, mode halo.Mode, nt, k int) (obs.RankMetrics, core.CommStats, int) {
	t.Helper()
	obs.Reset()
	var effK int
	perRank := make([]core.CommStats, topo[0]*topo[1])
	err := mpi.RunRanks(len(perRank), func(c *mpi.Comm) error {
		m, ctx, err := OnRank(c, model, Config{Shape: shape, SpaceOrder: 4, NBL: 2}, mode, topo)
		if err != nil {
			return err
		}
		// The one thing OnRank does not offer: a periodic world.
		if ctx.Cart, err = mpi.CartCreate(c, topo, []bool{periodic, periodic}); err != nil {
			return err
		}
		res, err := Run(m, ctx, RunConfig{NT: nt, Exec: Exec{TimeTile: k, Workers: 1}})
		if err != nil {
			return err
		}
		perRank[c.Rank()] = res.Op.CommStats()
		if c.Rank() == 0 {
			effK = res.Op.TimeTile()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var stats core.CommStats
	for _, s := range perRank {
		stats.MsgsPerStep += s.MsgsPerStep
		stats.BytesPerStep += s.BytesPerStep
	}
	return obs.Snapshot().Total, stats, effK
}

func TestObsTrafficMatchesModelExactly(t *testing.T) {
	obs.EnableMetrics()
	defer func() {
		obs.DisableAll()
		obs.Reset()
	}()
	shape := []int{32, 32}
	const nt = 8 // a multiple of every tested interval: no partial tiles
	models := []string{"acoustic", "elastic"}
	if testing.Short() {
		models = []string{"acoustic"}
	}
	worlds := []struct {
		topo     []int
		periodic bool
		ks       []int
	}{
		{[]int{2, 2}, true, []int{1, 2, 4}},
		{[]int{2, 1}, false, []int{1, 4}},
	}
	for _, model := range models {
		for _, mode := range []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull} {
			for _, w := range worlds {
				for _, k := range w.ks {
					name := fmt.Sprintf("%s/%s %v periodic=%v k=%d", model, mode, w.topo, w.periodic, k)
					total, stats, effK := obsTrafficRun(t, model, shape, w.topo, w.periodic, mode, nt, k)
					if effK != k {
						t.Fatalf("%s: effective interval %d (test needs the requested one)", name, effK)
					}
					// Predictions are per rank per step, summed over the
					// ranks. nt is a multiple of k and k is a power of two,
					// so the expected totals are exact in float64.
					wantMsgs := stats.MsgsPerStep * float64(nt)
					wantBytes := stats.BytesPerStep * float64(nt)
					if wantMsgs <= 0 {
						t.Fatalf("%s: model predicts no traffic", name)
					}
					if got := float64(total.StepMsgs); got != wantMsgs {
						t.Errorf("%s: measured %v msgs, model predicts %v", name, got, wantMsgs)
					}
					if got := float64(total.StepBytes); got != wantBytes {
						t.Errorf("%s: measured %v bytes, model predicts %v", name, got, wantBytes)
					}
					// The expected totals must themselves be integral — a
					// fractional product would mean the exactness setup
					// (nt multiple of k) is broken, not the counters.
					if math.Trunc(wantMsgs) != wantMsgs || math.Trunc(wantBytes) != wantBytes {
						t.Fatalf("%s: non-integral expectation msgs=%v bytes=%v", name, wantMsgs, wantBytes)
					}
					// Tiled plans hoist the time-invariant parameter exchanges
					// (the shell recompute reads them in the ghost region); they
					// must be classified as preamble, never as steady state.
					if effK > 1 && total.PreambleMsgs <= 0 {
						t.Errorf("%s: expected hoisted preamble exchanges to be classified separately", name)
					}
				}
			}
		}
	}
}

// Serial runs must record no communication at all.
func TestObsTrafficSerialZero(t *testing.T) {
	obs.EnableMetrics()
	defer func() {
		obs.DisableAll()
		obs.Reset()
	}()
	obs.Reset()
	m, err := Acoustic(Config{Shape: []int{32, 32}, SpaceOrder: 4, NBL: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, nil, RunConfig{NT: 4}); err != nil {
		t.Fatal(err)
	}
	total := obs.Snapshot().Total
	if total.StepMsgs != 0 || total.StepBytes != 0 || total.PreambleMsgs != 0 {
		t.Fatalf("serial run recorded traffic: %+v", total)
	}
	if total.SteadySteps != 4 {
		t.Errorf("steady steps = %d, want 4", total.SteadySteps)
	}
}
