package devigo

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestListing1EndToEnd reproduces paper Listing 1 through the public API.
func TestListing1EndToEnd(t *testing.T) {
	nx, ny := 4, 4
	nu := 0.5
	g, err := NewGrid([]int{nx, ny}, []float64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	dx, dy := g.Spacing(0), g.Spacing(1)
	sigma := 0.25
	dt := sigma * dx * dy / nu

	u, err := NewTimeFunction("u", g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Data().SetSlice(0, []Slice{SliceRange(1, -1), SliceRange(1, -1)}, 1); err != nil {
		t.Fatal(err)
	}
	upd, err := Solve(Eq(u.Dt(), u.Laplace()), u.Forward())
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewOperator(g, Assign(u.Forward(), upd))
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Apply(ApplyConfig{TimeM: 0, TimeN: 0, DT: dt}); err != nil {
		t.Fatal(err)
	}
	// Centre points: u = 1 + dt*lap where lap = -2/dx^2 - 2/dy^2 + cross
	// contributions; verify one hand-computed value.
	lap := (0 + 1 - 2*1) / (dx * dx) * 2 // symmetric in x and y at (1,1)
	want := float32(1 + dt*lap)
	got, ok := u.Data().At(1, []int{1, 1})
	if !ok {
		t.Fatal("point (1,1) not owned in serial run")
	}
	if math.Abs(float64(got-want)) > 1e-6 {
		t.Errorf("u[1,1] = %v, want %v", got, want)
	}
}

func TestGeneratedCodeAccessible(t *testing.T) {
	g, _ := NewGrid([]int{8, 8}, nil)
	u, _ := NewTimeFunction("u", g, 2, 1)
	upd, _ := Solve(Eq(u.Dt(), u.Laplace()), u.Forward())
	op, _ := NewOperator(g, Assign(u.Forward(), upd))
	if !strings.Contains(op.GeneratedCode(), "for (int time") {
		t.Error("generated code missing time loop")
	}
	if !strings.Contains(op.ScheduleTree(), "time++") {
		t.Error("schedule tree missing")
	}
}

func TestRunDMPSameUserCode(t *testing.T) {
	// The paper's central claim: the same user code runs distributed with
	// zero changes. Run Listing 1 on 4 ranks and compare every owned
	// point against the serial result.
	serial := map[[2]int]float32{}
	{
		g, _ := NewGrid([]int{4, 4}, []float64{2, 2})
		u, _ := NewTimeFunction("u", g, 2, 1)
		_ = u.Data().SetSlice(0, []Slice{SliceRange(1, -1), SliceRange(1, -1)}, 1)
		upd, _ := Solve(Eq(u.Dt(), u.Laplace()), u.Forward())
		op, _ := NewOperator(g, Assign(u.Forward(), upd))
		if err := op.Apply(ApplyConfig{TimeM: 0, TimeN: 0, DT: 0.05}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				v, _ := u.Data().At(1, []int{i, j})
				serial[[2]int{i, j}] = v
			}
		}
	}
	for _, mode := range []string{"basic", "diag", "full"} {
		err := RunDMP(DMPConfig{Ranks: 4, Mode: mode}, func(env *Env) error {
			g, err := env.NewGrid([]int{4, 4}, []float64{2, 2}, []int{2, 2})
			if err != nil {
				return err
			}
			u, err := NewTimeFunction("u", g, 2, 1)
			if err != nil {
				return err
			}
			_ = u.Data().SetSlice(0, []Slice{SliceRange(1, -1), SliceRange(1, -1)}, 1)
			upd, err := Solve(Eq(u.Dt(), u.Laplace()), u.Forward())
			if err != nil {
				return err
			}
			op, err := NewOperator(g, Assign(u.Forward(), upd))
			if err != nil {
				return err
			}
			if err := op.Apply(ApplyConfig{TimeM: 0, TimeN: 0, DT: 0.05}); err != nil {
				return err
			}
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					if v, ok := u.Data().At(1, []int{i, j}); ok {
						if v != serial[[2]int{i, j}] {
							t.Errorf("mode %s rank %d: (%d,%d) = %v, want %v",
								mode, env.Rank(), i, j, v, serial[[2]int{i, j}])
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
}

func TestRunDMPCustomTopology(t *testing.T) {
	err := RunDMP(DMPConfig{Ranks: 4, Mode: "basic"}, func(env *Env) error {
		if _, err := env.NewGrid([]int{8, 8}, nil, []int{4, 1}); err != nil {
			return err
		}
		// Product mismatch must error.
		if _, err := env.NewGrid([]int{8, 8}, nil, []int{3, 1}); err == nil {
			t.Error("bad topology accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestApplyRequiresDT(t *testing.T) {
	g, _ := NewGrid([]int{8, 8}, nil)
	u, _ := NewTimeFunction("u", g, 2, 1)
	upd, _ := Solve(Eq(u.Dt(), u.Laplace()), u.Forward())
	op, _ := NewOperator(g, Assign(u.Forward(), upd))
	if err := op.Apply(ApplyConfig{TimeM: 0, TimeN: 0}); err == nil {
		t.Error("missing DT should error")
	}
	// A DT that is set but not a positive finite number must not run.
	for _, dt := range []float64{-0.001, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := op.Apply(ApplyConfig{TimeM: 0, TimeN: 0, DT: dt})
		if err == nil || !strings.Contains(err.Error(), "ApplyConfig.DT") || !strings.Contains(err.Error(), fmt.Sprint(dt)) {
			t.Errorf("DT=%v: err = %v, want it to name ApplyConfig.DT and the value", dt, err)
		}
	}
}

func TestRunDMPBadMode(t *testing.T) {
	if err := RunDMP(DMPConfig{Ranks: 2, Mode: "warp"}, func(*Env) error { return nil }); err == nil {
		t.Error("unknown mode should error")
	}
}

func TestExpressionHelpers(t *testing.T) {
	g, _ := NewGrid([]int{8, 8}, nil)
	m, _ := NewFunction("m", g, 2)
	u, _ := NewTimeFunction("u", g, 2, 2)
	e := Sub(Mul(m.At(), u.Dt2()), u.Laplace())
	sol, err := Solve(Eq(e, Num(0)), u.Forward())
	if err != nil {
		t.Fatal(err)
	}
	if sol == nil {
		t.Fatal("nil solution")
	}
	if u.Backward() == nil || m.Dx(0) == nil || m.Dx2(1) == nil || Neg(m.At()) == nil ||
		Add(m.At(), Num(1)) == nil || m.Shifted(1, 0) == nil {
		t.Error("expression constructors returned nil")
	}
	if m.Name() != "m" {
		t.Error("name accessor broken")
	}
}

func TestSparsePublicAPISeismicWorkflow(t *testing.T) {
	// A miniature full seismic workflow through the public API: acoustic
	// update + Ricker source injection + receiver interpolation.
	g, err := NewGrid([]int{24, 24}, []float64{23, 23})
	if err != nil {
		t.Fatal(err)
	}
	u, _ := NewTimeFunction("u", g, 4, 2)
	m, _ := NewFunction("m", g, 4)
	_ = m.Data().SetSlice(0, []Slice{SliceAll(), SliceAll()}, 1) // v = 1
	pde := Sub(Mul(m.At(), u.Dt2()), u.Laplace())
	upd, err := Solve(Eq(pde, Num(0)), u.Forward())
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewOperator(g, Assign(u.Forward(), upd))
	if err != nil {
		t.Fatal(err)
	}

	src, err := NewSparseFunction("src", g, [][]float64{{11.5, 11.5}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewSparseFunction("rec", g, [][]float64{{5.0, 5.0}, {18.0, 18.0}})
	if err != nil {
		t.Fatal(err)
	}
	nt := 60
	dt := 0.4
	wavelet := RickerWavelet(0.12, 12, dt, nt)
	var traces [][]float64
	err = op.Apply(ApplyConfig{TimeM: 0, TimeN: nt - 1, DT: dt, PostStep: func(tt int) {
		_ = src.Inject(&u.Function, tt+1, []float32{wavelet[tt] * float32(dt*dt)})
		traces = append(traces, rec.Interpolate(&u.Function, tt+1))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != nt {
		t.Fatalf("traces = %d", len(traces))
	}
	// The wave must reach both receivers.
	for r := 0; r < 2; r++ {
		maxAbs := 0.0
		for _, tr := range traces {
			if v := math.Abs(tr[r]); v > maxAbs {
				maxAbs = v
			}
		}
		if maxAbs < 1e-12 {
			t.Errorf("receiver %d recorded nothing", r)
		}
	}
	if src.NPoints() != 1 || rec.NPoints() != 2 {
		t.Error("NPoints wrong")
	}
}
