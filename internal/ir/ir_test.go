package ir

import (
	"strings"
	"testing"

	"devigo/internal/symbolic"
)

func timeFunc(name string, nd int) *symbolic.FuncRef {
	return &symbolic.FuncRef{Name: name, NDims: nd, IsTime: true, NumBufs: 3}
}

func paramFunc(name string, nd int) *symbolic.FuncRef {
	return &symbolic.FuncRef{Name: name, NDims: nd}
}

func TestLowerRejectsNonAccessLHS(t *testing.T) {
	if _, err := Lower([]symbolic.Eq{{LHS: symbolic.S("x"), RHS: symbolic.Int(1)}}, 2); err == nil {
		t.Error("non-access LHS should be rejected")
	}
}

func TestLowerRejectsShiftedWrite(t *testing.T) {
	u := timeFunc("u", 2)
	eq := symbolic.Eq{LHS: symbolic.Shifted(u, 1, 1, 0), RHS: symbolic.Int(0)}
	if _, err := Lower([]symbolic.Eq{eq}, 2); err == nil {
		t.Error("shifted write should be rejected")
	}
}

func TestLowerSingleClusterLaplacian(t *testing.T) {
	u := timeFunc("u", 2)
	eq := symbolic.Eq{
		LHS: symbolic.ForwardStencil(u),
		RHS: symbolic.Laplace(symbolic.At(u), 2, 4),
	}
	clusters, err := Lower([]symbolic.Eq{eq}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 {
		t.Fatalf("want 1 cluster, got %d", len(clusters))
	}
	c := clusters[0]
	if c.Radius[0] != 2 || c.Radius[1] != 2 {
		t.Errorf("radius = %v, want [2 2] for SDO 4", c.Radius)
	}
	if !c.HaloReads["u"][0] {
		t.Error("u at t must need a halo")
	}
	if c.Writes["u"] != 1 {
		t.Errorf("writes = %v", c.Writes)
	}
}

func TestLowerSplitsOnFlowDependence(t *testing.T) {
	// Virieux-style: v[t+1] = f(tau[t]); tau[t+1] = g(v[t+1] shifted) —
	// the second reads the first's output at an offset, forcing a split.
	v := timeFunc("v", 1)
	tau := timeFunc("tau", 1)
	eq1 := symbolic.Eq{
		LHS: symbolic.ForwardStencil(v),
		RHS: symbolic.NewAdd(symbolic.At(v), symbolic.Shifted(tau, 0, 1)),
	}
	eq2 := symbolic.Eq{
		LHS: symbolic.ForwardStencil(tau),
		RHS: symbolic.Shifted(v, 1, -1),
	}
	clusters, err := Lower([]symbolic.Eq{eq1, eq2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("want 2 clusters, got %d", len(clusters))
	}
	// Cluster 2 must require the halo of v at t+1.
	if !clusters[1].HaloReads["v"][1] {
		t.Error("second cluster must need halo of v[t+1]")
	}
}

func TestLowerKeepsIndependentEqsFused(t *testing.T) {
	// Two updates reading only old time levels fuse into one cluster.
	u := timeFunc("u", 1)
	w := timeFunc("w", 1)
	eq1 := symbolic.Eq{LHS: symbolic.ForwardStencil(u), RHS: symbolic.Shifted(w, 0, 1)}
	eq2 := symbolic.Eq{LHS: symbolic.ForwardStencil(w), RHS: symbolic.Shifted(u, 0, -1)}
	clusters, err := Lower([]symbolic.Eq{eq1, eq2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 {
		t.Fatalf("want 1 fused cluster, got %d", len(clusters))
	}
}

func TestLowerCentredReadOfOwnWriteDoesNotSplit(t *testing.T) {
	// Reading the freshly written value at the same point needs no halo.
	u := timeFunc("u", 1)
	w := timeFunc("w", 1)
	eq1 := symbolic.Eq{LHS: symbolic.ForwardStencil(u), RHS: symbolic.At(u)}
	eq2 := symbolic.Eq{LHS: symbolic.ForwardStencil(w), RHS: symbolic.ForwardStencil(u)}
	clusters, err := Lower([]symbolic.Eq{eq1, eq2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 {
		t.Fatalf("want 1 cluster, got %d", len(clusters))
	}
}

func buildAcousticLike(t *testing.T) []*Cluster {
	t.Helper()
	u := timeFunc("u", 2)
	m := paramFunc("m", 2)
	// u[t+1] = 2u - u[t-1] + dt^2/m * laplace(u): reads m at offset 0 only,
	// but the laplacian of u shifted also multiplies m in TTI-like forms;
	// here read m at an offset to exercise parameter halos.
	rhs := symbolic.NewAdd(
		symbolic.NewMul(symbolic.Shifted(m, 0, 1, 0), symbolic.Laplace(symbolic.At(u), 2, 2)),
		symbolic.At(u),
	)
	clusters, err := Lower([]symbolic.Eq{{LHS: symbolic.ForwardStencil(u), RHS: rhs}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return clusters
}

func TestScheduleHoistsParameterHalo(t *testing.T) {
	clusters := buildAcousticLike(t)
	isTime := func(name string) bool { return name == "u" }
	sched := BuildSchedule(clusters, 2, isTime)
	// Detection stage is conservative: both u and m requirements present.
	if len(sched.Steps) != 1 || len(sched.Steps[0].Halos) != 2 {
		t.Fatalf("conservative schedule wrong: %+v", sched.Steps)
	}
	opt := OptimizeSchedule(sched, isTime)
	if len(opt.Preamble) != 1 || opt.Preamble[0].Field != "m" {
		t.Errorf("m exchange should be hoisted, preamble = %v", opt.Preamble)
	}
	if len(opt.Steps[0].Halos) != 1 || opt.Steps[0].Halos[0].Field != "u" {
		t.Errorf("time loop should keep only u halo, got %v", opt.Steps[0].Halos)
	}
}

func TestScheduleDropsCleanSpot(t *testing.T) {
	// Two clusters both reading u[t] at offsets, with no write of u[t] in
	// between: the second halo requirement must be dropped.
	u := timeFunc("u", 1)
	w := timeFunc("w", 1)
	v := timeFunc("v", 1)
	eq1 := symbolic.Eq{LHS: symbolic.ForwardStencil(w), RHS: symbolic.Shifted(u, 0, 1)}
	// eq2 reads w[t+1] at an offset -> new cluster; also reads u[t] at an
	// offset again.
	eq2 := symbolic.Eq{
		LHS: symbolic.ForwardStencil(v),
		RHS: symbolic.NewAdd(symbolic.Shifted(w, 1, -1), symbolic.Shifted(u, 0, -1)),
	}
	clusters, err := Lower([]symbolic.Eq{eq1, eq2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("want 2 clusters, got %d", len(clusters))
	}
	isTime := func(string) bool { return true }
	opt := OptimizeSchedule(BuildSchedule(clusters, 1, isTime), isTime)
	// Step 1: u halo. Step 2: w[t+1] halo only (u still clean).
	if len(opt.Steps[0].Halos) != 1 || opt.Steps[0].Halos[0].Field != "u" {
		t.Errorf("step 1 halos = %v", opt.Steps[0].Halos)
	}
	if len(opt.Steps[1].Halos) != 1 || opt.Steps[1].Halos[0].Field != "w" {
		t.Errorf("step 2 halos = %v (u should have been dropped as clean)", opt.Steps[1].Halos)
	}
}

func TestScheduleStringForm(t *testing.T) {
	clusters := buildAcousticLike(t)
	isTime := func(name string) bool { return name == "u" }
	opt := OptimizeSchedule(BuildSchedule(clusters, 2, isTime), isTime)
	s := opt.String()
	if !strings.Contains(s, "<Halo m>") || !strings.Contains(s, "time++") {
		t.Errorf("schedule rendering missing parts:\n%s", s)
	}
	// The m halo must appear before time++ (hoisted).
	if strings.Index(s, "<Halo m>") > strings.Index(s, "time++") {
		t.Error("hoisted halo should precede the time loop")
	}
}

func TestFlopsPerPointPositive(t *testing.T) {
	clusters := buildAcousticLike(t)
	if f := clusters[0].FlopsPerPoint(); f < 5 {
		t.Errorf("flops per point = %d, suspiciously low", f)
	}
}
