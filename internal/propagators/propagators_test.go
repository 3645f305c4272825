package propagators

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"devigo/internal/grid"
	"devigo/internal/halo"
	"devigo/internal/ir"
	"devigo/internal/mpi"
)

func serialCfg(shape []int, so int) Config {
	return Config{Shape: shape, SpaceOrder: so, NBL: 4, Velocity: 1.5}
}

func TestAcousticModelStructure(t *testing.T) {
	m, err := Acoustic(serialCfg([]int{24, 24, 24}, 8))
	if err != nil {
		t.Fatal(err)
	}
	if m.WorkingSetFields != 5 {
		t.Errorf("working set = %d, want 5 (paper)", m.WorkingSetFields)
	}
	if len(m.Eqs) != 1 {
		t.Errorf("acoustic should lower to 1 update equation")
	}
	if m.CriticalDt <= 0 {
		t.Error("critical dt missing")
	}
	// One cluster; halo on u only (m and damp are read centred).
	clusters, err := ir.Lower(m.Eqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 {
		t.Fatalf("acoustic clusters = %d, want 1", len(clusters))
	}
	if !clusters[0].HaloReads["u"][0] {
		t.Error("u halo read missing")
	}
	if len(clusters[0].HaloReads) != 1 {
		t.Errorf("only u should need halos, got %v", clusters[0].HaloReads)
	}
	// SDO 8 -> radius 4 per dimension.
	for d, r := range clusters[0].Radius {
		if r != 4 {
			t.Errorf("radius[%d] = %d, want 4", d, r)
		}
	}
}

func TestElasticModelStructure(t *testing.T) {
	m, err := Elastic(serialCfg([]int{20, 20, 20}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if m.WorkingSetFields != 22 {
		t.Errorf("3-D elastic working set = %d, want 22 (paper)", m.WorkingSetFields)
	}
	if len(m.Eqs) != 9 {
		t.Errorf("3-D elastic should have 9 updates, got %d", len(m.Eqs))
	}
	clusters, err := ir.Lower(m.Eqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Velocity cluster then stress cluster (stress reads v[t+1]).
	if len(clusters) != 2 {
		t.Fatalf("elastic clusters = %d, want 2", len(clusters))
	}
	if !clusters[1].HaloReads["vx"][1] {
		t.Error("stress cluster must exchange v[t+1] halos")
	}
}

func TestViscoelasticModelStructure(t *testing.T) {
	m, err := Viscoelastic(serialCfg([]int{20, 20, 20}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Eqs) != 15 {
		t.Errorf("3-D viscoelastic should have 15 stencil updates (paper), got %d", len(m.Eqs))
	}
	if m.WorkingSetFields != 35 {
		t.Errorf("working set = %d, want 35 (paper quotes 36)", m.WorkingSetFields)
	}
	clusters, err := ir.Lower(m.Eqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	// v | r+tau: the memory-variable and stress updates fuse (stress reads
	// r[t+1] centred only).
	if len(clusters) != 2 {
		t.Fatalf("viscoelastic clusters = %d, want 2", len(clusters))
	}
}

func TestTTIModelStructure(t *testing.T) {
	m, err := TTI(serialCfg([]int{16, 16}, 4))
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := ir.Lower(m.Eqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 {
		t.Fatalf("tti clusters = %d, want 1 (p and q read only old levels)", len(clusters))
	}
	// The rotated Laplacian has a far higher flop count than acoustic.
	ac, _ := Acoustic(serialCfg([]int{16, 16}, 4))
	acC, _ := ir.Lower(ac.Eqs, 2)
	if clusters[0].FlopsPerPoint() < 3*acC[0].FlopsPerPoint() {
		t.Errorf("tti flops (%d) should dwarf acoustic (%d)",
			clusters[0].FlopsPerPoint(), acC[0].FlopsPerPoint())
	}
	// Rotated stencil reads beyond the plain Laplacian radius of so/2.
	if clusters[0].Radius[0] <= 2 {
		t.Errorf("tti radius = %v, expected cross-derivative widening", clusters[0].Radius)
	}
}

func runSerial(t *testing.T, name string, shape []int, so, nt int) *RunResult {
	t.Helper()
	m, err := Build(name, serialCfg(shape, so))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, nil, RunConfig{NT: nt, NReceivers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAcousticPropagatesEnergy(t *testing.T) {
	res := runSerial(t, "acoustic", []int{32, 32}, 4, 60)
	if res.Norm <= 0 || math.IsNaN(res.Norm) || math.IsInf(res.Norm, 0) {
		t.Fatalf("field norm = %v", res.Norm)
	}
	// Receivers away from the source must eventually record signal.
	last := res.Receivers[len(res.Receivers)-1]
	any := false
	for _, v := range last {
		if math.Abs(v) > 1e-12 {
			any = true
		}
	}
	if !any {
		t.Error("no energy reached the receivers")
	}
}

func TestAllModelsRunStable2D(t *testing.T) {
	for _, name := range ModelNames() {
		t.Run(name, func(t *testing.T) {
			res := runSerial(t, name, []int{24, 24}, 4, 40)
			if math.IsNaN(res.Norm) || math.IsInf(res.Norm, 0) {
				t.Fatalf("%s norm = %v", name, res.Norm)
			}
			if res.Norm == 0 {
				t.Fatalf("%s produced a silent field", name)
			}
			if res.Perf.PointsUpdated == 0 {
				t.Error("no points updated")
			}
		})
	}
}

func TestAllModelsRunStable3D(t *testing.T) {
	if testing.Short() {
		t.Skip("3-D smoke test skipped in -short")
	}
	for _, name := range ModelNames() {
		t.Run(name, func(t *testing.T) {
			res := runSerial(t, name, []int{16, 16, 16}, 4, 15)
			if math.IsNaN(res.Norm) || math.IsInf(res.Norm, 0) || res.Norm == 0 {
				t.Fatalf("%s norm = %v", name, res.Norm)
			}
		})
	}
}

// runOnRanks runs a model over an in-process world decomposed as topo —
// one straight-line rank body on OnRank — and returns every rank's result
// (operators closed), or the first rank's failure.
func runOnRanks(name string, shape, topo []int, mode halo.Mode, so int, rc RunConfig) ([]*RunResult, error) {
	nranks := 1
	for _, v := range topo {
		nranks *= v
	}
	out := make([]*RunResult, nranks)
	err := mpi.RunRanks(nranks, func(c *mpi.Comm) error {
		m, ctx, err := OnRank(c, name, serialCfg(shape, so), mode, topo)
		if err != nil {
			return err
		}
		res, err := Run(m, ctx, rc)
		if err != nil {
			return err
		}
		res.Op.Close()
		out[c.Rank()] = res
		return nil
	})
	return out, err
}

// rank0 is runOnRanks for callers that compare rank 0's checksum and
// traces; any rank's failure fails the test.
func rank0(t *testing.T, name string, shape, topo []int, mode halo.Mode, so int, rc RunConfig) *RunResult {
	t.Helper()
	out, err := runOnRanks(name, shape, topo, mode, so, rc)
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// runDMP executes a model distributed over the topology and returns the
// final checksum plus receiver traces from rank 0.
func runDMP(t *testing.T, name string, shape, topo []int, mode halo.Mode, so, nt int) (float64, [][]float64) {
	t.Helper()
	res := rank0(t, name, shape, topo, mode, so, RunConfig{NT: nt, NReceivers: 4})
	return res.Norm, res.Receivers
}

func TestDMPEquivalence_AllModelsAllModes(t *testing.T) {
	// The flagship correctness result: for every model and every
	// communication pattern, the distributed run reproduces the serial
	// checksum and receiver traces exactly (identical float32 operation
	// order per point).
	shape := []int{24, 24}
	so, nt := 4, 25
	for _, name := range ModelNames() {
		serial := runSerial(t, name, shape, so, nt)
		for _, mode := range []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull} {
			norm, traces := runDMP(t, name, shape, []int{2, 2}, mode, so, nt)
			if math.Abs(norm-serial.Norm) > 1e-9*math.Max(1, serial.Norm) {
				t.Errorf("%s/%s: norm %v != serial %v", name, mode, norm, serial.Norm)
			}
			for it := range traces {
				for ir2 := range traces[it] {
					d := math.Abs(traces[it][ir2] - serial.Receivers[it][ir2])
					if d > 1e-9*math.Max(1e-6, math.Abs(serial.Receivers[it][ir2])) {
						t.Errorf("%s/%s: trace (%d,%d) diverges: %v vs %v",
							name, mode, it, ir2, traces[it][ir2], serial.Receivers[it][ir2])
						break
					}
				}
			}
		}
	}
}

func TestDMPEquivalence_CustomTopologies(t *testing.T) {
	// Paper Fig. 2: custom decompositions must not change results.
	shape := []int{24, 24}
	serial := runSerial(t, "acoustic", shape, 4, 20)
	for _, topo := range [][]int{{4, 1}, {1, 4}, {2, 2}} {
		norm, _ := runDMP(t, "acoustic", shape, topo, halo.ModeDiagonal, 4, 20)
		if math.Abs(norm-serial.Norm) > 1e-9*math.Max(1, serial.Norm) {
			t.Errorf("topology %v: norm %v != serial %v", topo, norm, serial.Norm)
		}
	}
}

func TestDMPEquivalence_3DElastic(t *testing.T) {
	if testing.Short() {
		t.Skip("3-D DMP test skipped in -short")
	}
	shape := []int{16, 16, 16}
	serial := runSerial(t, "elastic", shape, 4, 10)
	norm, _ := runDMP(t, "elastic", shape, []int{2, 2, 1}, halo.ModeFull, 4, 10)
	if math.Abs(norm-serial.Norm) > 1e-9*math.Max(1, serial.Norm) {
		t.Errorf("3-D elastic full mode: %v != %v", norm, serial.Norm)
	}
}

func TestBuildUnknownModel(t *testing.T) {
	if _, err := Build("bogus", serialCfg([]int{8, 8}, 2)); err == nil {
		t.Error("unknown model should fail")
	}
}

// A space order the offsets would floor (odd) or cannot express (< 2) is
// rejected by name for every model, not run as a lower-order scheme; so
// are a speed that is not positive and finite and a negative absorbing
// layer, which would otherwise yield an unusable critical dt or no layer.
func TestBuildRejectsBadSpaceOrder(t *testing.T) {
	for _, model := range ModelNames() {
		for _, so := range []int{3, 1, -2, 7} {
			_, err := Build(model, serialCfg([]int{16, 16}, so))
			if want := fmt.Sprintf("SpaceOrder=%d", so); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s so=%d: err = %v, want it to name %s", model, so, err, want)
			}
		}
		for _, v := range []float64{-1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := serialCfg([]int{16, 16}, 4)
			c.Velocity = v
			_, err := Build(model, c)
			wantBadValue(t, err, "Config.Velocity", v)
		}
		c := serialCfg([]int{16, 16}, 4)
		c.NBL = -3
		_, err := Build(model, c)
		wantBadValue(t, err, "Config.NBL", -3)
	}
}

// TestWorkingSetFields pins every model's working set, time buffers
// counted individually (the paper's "N fields"), in 2-D and 3-D, and the
// acoustic adjoint's, which shares the forward's m and damp.
func TestWorkingSetFields(t *testing.T) {
	for _, tc := range []struct {
		model  string
		d2, d3 int
	}{
		{"acoustic", 5, 5},
		{"elastic", 14, 22},
		{"tti", 12, 14},
		{"viscoelastic", 21, 35},
	} {
		for shape, want := range map[string]int{"2-D": tc.d2, "3-D": tc.d3} {
			dims := []int{12, 12}
			if shape == "3-D" {
				dims = []int{12, 12, 12}
			}
			m, err := Build(tc.model, serialCfg(dims, 4))
			if err != nil {
				t.Fatal(err)
			}
			if m.WorkingSetFields != want {
				t.Errorf("%s %s working set = %d, want %d", tc.model, shape, m.WorkingSetFields, want)
			}
		}
	}
	fwd, err := Acoustic(serialCfg([]int{12, 12}, 4))
	if err != nil {
		t.Fatal(err)
	}
	adj, err := Adjoint(fwd)
	if err != nil {
		t.Fatal(err)
	}
	if adj.WorkingSetFields != 5 {
		t.Errorf("acoustic adjoint working set = %d, want 5", adj.WorkingSetFields)
	}
}

func TestRunNeedsNT(t *testing.T) {
	m, _ := Acoustic(serialCfg([]int{16, 16}, 4))
	for name, rc := range map[string]RunConfig{
		"unset":       {},
		"NT 0":        {NT: 0, DT: m.CriticalDt},
		"negative NT": {NT: -5},
	} {
		want := fmt.Sprintf("needs NT >= 1, got %d", rc.NT)
		if _, err := Run(m, nil, rc); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
	}
}

// badDTs are timesteps no entry point may silently replace with the
// critical dt: each must fail, naming the field and the value.
var badDTs = []float64{-0.001, -1, math.NaN(), math.Inf(1), math.Inf(-1)}

// wantBadValue fails the test unless err names field and the value v.
func wantBadValue(t *testing.T, err error, field string, v any) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), field) || !strings.Contains(err.Error(), fmt.Sprint(v)) {
		t.Errorf("%s=%v: err = %v, want it to name %s and %v", field, v, err, field, v)
	}
}

func TestRunRejectsBadDT(t *testing.T) {
	m, _ := Acoustic(serialCfg([]int{16, 16}, 4))
	for _, dt := range badDTs {
		_, err := Run(m, nil, RunConfig{NT: 2, DT: dt})
		wantBadValue(t, err, "RunConfig.DT", dt)
	}
}

// A source or receiver position that is not a number must fail the run by
// name instead of injecting NaN into the wavefield, and a receiver "line"
// of one, which used to record nothing, must say how to place one receiver.
func TestRunRejectsBadSourceAndReceiverLayouts(t *testing.T) {
	m, _ := Acoustic(serialCfg([]int{16, 16}, 4))
	mid := m.Grid.Extent[0] / 2
	for name, rc := range map[string]RunConfig{
		"NaN source":    {NT: 2, SourceCoords: []float64{math.NaN(), mid}},
		"+Inf source":   {NT: 2, SourceCoords: []float64{mid, math.Inf(1)}},
		"-Inf receiver": {NT: 2, ReceiverCoords: [][]float64{{mid, mid}, {math.Inf(-1), mid}}},
	} {
		_, err := Run(m, nil, rc)
		if err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("%s: err = %v, want the non-finite coordinate named", name, err)
		}
	}
	_, err := Run(m, nil, RunConfig{NT: 2, NReceivers: 1})
	if err == nil || !strings.Contains(err.Error(), "ReceiverCoords") {
		t.Errorf("NReceivers=1: err = %v, want a pointer to ReceiverCoords", err)
	}
	line := ReceiverLine(m.Grid, 1)
	if len(line) != 1 || line[0][0] != mid {
		t.Errorf("ReceiverLine(1) = %v, want the line's midpoint", line)
	}
	res, err := Run(m, nil, RunConfig{NT: 2, ReceiverCoords: line})
	if err != nil || len(res.Receivers) != 2 || len(res.Receivers[0]) != 1 {
		t.Errorf("one receiver through ReceiverCoords: err %v, traces %v", err, res)
	}
	if got := ReceiverLine(m.Grid, 0); len(got) != 0 {
		t.Errorf("ReceiverLine(0) = %v, want none", got)
	}
}

func TestDampFieldProfile(t *testing.T) {
	m, _ := Acoustic(serialCfg([]int{20, 20}, 2))
	damp := m.Fields["damp"]
	// Zero in the deep interior, positive at the faces.
	if damp.AtDomain(0, 10, 10) != 0 {
		t.Error("interior damping should be zero")
	}
	if damp.AtDomain(0, 0, 10) <= 0 {
		t.Error("boundary damping should be positive")
	}
	if damp.AtDomain(0, 0, 10) <= damp.AtDomain(0, 2, 10) {
		t.Error("damping should grow towards the face")
	}
}

func TestCriticalDtScalesWithSpacing(t *testing.T) {
	gCoarse := grid.MustNew([]int{16, 16}, []float64{30, 30})
	gFine := grid.MustNew([]int{16, 16}, []float64{15, 15})
	if criticalDt(gCoarse, 1.5) <= criticalDt(gFine, 1.5) {
		t.Error("coarser grids must allow larger dt")
	}
}
