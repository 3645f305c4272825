package perfmodel

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"devigo/internal/halo"
)

var updatePredict = flag.Bool("update-predict", false, "rewrite testdata/predict_bits.txt from the current DefaultHost")

const predictGolden = "testdata/predict_bits.txt"

// pinProfiles is the profile grid the DefaultHost pin covers: serial and
// 2- / 4-rank worlds, 2-D and 3-D boxes, the k axis open to 8, a pinned
// worker count and a profile whose deep exchange falls back to
// HaloStreams (TileStreams 0).
func pinProfiles() map[string]OpProfile {
	return map[string]OpProfile{
		"serial-2d": {LocalShape: []int{256, 256}, InstrsPerPoint: 32, StreamsPerPoint: 4,
			Ranks: 1, MaxWorkers: 4, Mode: halo.ModeNone, TileRows: 8},
		"serial-3d-membound": {LocalShape: []int{64, 64, 64}, InstrsPerPoint: 2, StreamsPerPoint: 36,
			Ranks: 1, MaxWorkers: 8, Mode: halo.ModeNone, TileRows: 4},
		"2rank-2d-diag-k8": {LocalShape: []int{128, 256}, InstrsPerPoint: 32, StreamsPerPoint: 4,
			HaloStreams: 1, HaloWidth: 4, Ranks: 2, MaxWorkers: 2, Mode: halo.ModeDiagonal,
			TimeTile: 1, MaxTimeTile: 8, TileStride: 4, TileStreams: 2, TileRows: 16},
		"2rank-3d-basic-tilestreams0": {LocalShape: []int{32, 64, 64}, InstrsPerPoint: 120, StreamsPerPoint: 9,
			HaloStreams: 2, HaloWidth: 8, Ranks: 2, MaxWorkers: 4, Mode: halo.ModeBasic,
			TimeTile: 1, MaxTimeTile: 8, TileStride: 8, TileRows: 8},
		"4rank-3d-full-k4": {LocalShape: []int{48, 48, 40}, InstrsPerPoint: 340, StreamsPerPoint: 12,
			HaloStreams: 2, HaloWidth: 4, Ranks: 4, MaxWorkers: 8, Mode: halo.ModeFull,
			TimeTile: 1, MaxTimeTile: 4, TileStride: 4, TileStreams: 3, TileRows: 8},
		"4rank-2d-pinned-workers": {LocalShape: []int{16, 16}, InstrsPerPoint: 30, StreamsPerPoint: 5,
			HaloStreams: 1, HaloWidth: 4, Ranks: 4, MaxWorkers: 8, Mode: halo.ModeDiagonal,
			TimeTile: 1, MaxTimeTile: 8, TileStride: 2, TileStreams: 2, ForcedWorkers: 3, TileRows: 4},
	}
}

// renderPredictPin lists, per profile, the float64 bits of DefaultHost's
// prediction for every candidate and the plan's order.
func renderPredictPin() string {
	profiles := pinProfiles()
	names := make([]string, 0, len(profiles))
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	h := DefaultHost()
	var b strings.Builder
	for _, name := range names {
		p := profiles[name]
		fmt.Fprintf(&b, "profile %s\n", name)
		for _, c := range Candidates(p) {
			v := h.Predict(p, c)
			fmt.Fprintf(&b, "  %-16s %016x %.6g\n", c, math.Float64bits(v), v)
		}
		b.WriteString("  plan")
		for _, c := range Plan(h, p) {
			fmt.Fprintf(&b, " %s", c)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// DefaultHost's predictions and plan order are pinned to the bit: pricing
// the paper's clusters through the same function must not move a single
// runtime prediction. A deliberate recalibration regenerates the file with
// `go test ./internal/perfmodel -run TestDefaultHostPredictPinned -args -update-predict`.
func TestDefaultHostPredictPinned(t *testing.T) {
	got := renderPredictPin()
	if *updatePredict {
		if err := os.WriteFile(predictGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(predictGolden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines rendered, %d pinned", predictGolden, len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("%s line %d:\n got %q\nwant %q", predictGolden, i+1, gl[i], wl[i])
		}
	}
}
