package propagators

import (
	"fmt"
	"testing"

	"devigo/internal/halo"
	"devigo/internal/obs"
)

// TestWorldMessagesPerStep pins the steady-state messages a whole world
// sends per step: an exchange point sends one message per neighbour per
// phase, whatever the number of fields and time levels it fills. On a
// non-periodic 2x2 world every rank has 3 neighbours under diag and full,
// and 1 per phase of basic's 2, so one exchange is 12 world messages (8
// under basic), and a time tile of k divides that by k. Elastic and
// viscoelastic exchange before each of their two sweeps, so twice a step
// at k = 1 and once per tile otherwise; TTI's scratch schedule cannot be
// tiled, so its k clamps to 1.
func TestWorldMessagesPerStep(t *testing.T) {
	obs.EnableMetrics()
	defer func() {
		obs.DisableAll()
		obs.Reset()
	}()
	const nt = 8 // a multiple of every k: no partial tiles
	rows := []struct {
		model string
		mode  halo.Mode
		want  [3]float64 // at k = 1, 2, 4
	}{
		{"acoustic", halo.ModeDiagonal, [3]float64{12, 6, 3}},
		{"elastic", halo.ModeDiagonal, [3]float64{24, 6, 3}},
		{"viscoelastic", halo.ModeDiagonal, [3]float64{24, 6, 3}},
		{"tti", halo.ModeDiagonal, [3]float64{12, 12, 12}},
		{"acoustic", halo.ModeBasic, [3]float64{8, 4, 2}},
		{"acoustic", halo.ModeFull, [3]float64{12, 6, 3}},
		{"elastic", halo.ModeBasic, [3]float64{16, 4, 2}},
		{"elastic", halo.ModeFull, [3]float64{24, 6, 3}},
	}
	for _, r := range rows {
		for i, k := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s/%s/k%d", r.model, r.mode, k)
			total, _, effK := obsTrafficRun(t, r.model, []int{64, 64}, []int{2, 2}, false, r.mode, nt, k)
			wantK := k
			if r.model == "tti" {
				wantK = 1
			}
			if effK != wantK {
				t.Fatalf("%s: effective interval %d, want %d", name, effK, wantK)
			}
			if got := float64(total.StepMsgs) / nt; got != r.want[i] {
				t.Errorf("%s: %v world messages per step, want %v", name, got, r.want[i])
			}
		}
	}
}
