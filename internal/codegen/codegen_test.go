package codegen

import (
	"strings"
	"testing"

	"devigo/internal/halo"
	"devigo/internal/iet"
	"devigo/internal/ir"
	"devigo/internal/symbolic"
)

func emitDiffusion(t *testing.T, mode halo.Mode) string {
	t.Helper()
	u := &symbolic.FuncRef{Name: "u", NDims: 2, IsTime: true, NumBufs: 2}
	eq := symbolic.Eq{LHS: symbolic.Dt(symbolic.At(u), 1), RHS: symbolic.Laplace(symbolic.At(u), 2, 2)}
	sol, err := symbolic.Solve(eq, symbolic.ForwardStencil(u))
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := ir.Lower([]symbolic.Eq{{LHS: symbolic.ForwardStencil(u), RHS: sol}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	isTime := func(string) bool { return true }
	sched := ir.OptimizeSchedule(ir.BuildSchedule(clusters, 2, isTime), isTime)
	tree := iet.LowerHalos(iet.Build("Kernel", sched), mode)
	em := &Emitter{Halo: map[string][]int{"u": {2, 2}}, TimeBufs: map[string]int{"u": 2}}
	return em.EmitC(tree)
}

func TestEmitListing11Structure(t *testing.T) {
	code := emitDiffusion(t, halo.ModeNone)
	// Golden structural elements of paper Listing 11.
	for _, want := range []string{
		"void Kernel(...)",
		"float r",                // hoisted invariants
		"for (int time = time_m", // time loop
		"u[t1][x + 2][y + 2] =",  // aligned store
		"u[t0][x + 1][y + 2]",    // shifted stencil read
		"[affine,parallel,vector-dim]",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("missing %q in:\n%s", want, code)
		}
	}
	// Serial code must not contain halo machinery.
	if strings.Contains(code, "haloupdate") {
		t.Error("serial code should have no halo calls")
	}
}

func TestEmitBasicModeCalls(t *testing.T) {
	code := emitDiffusion(t, halo.ModeBasic)
	if !strings.Contains(code, "haloupdate_basic(u);") {
		t.Errorf("missing basic update call:\n%s", code)
	}
	if !strings.Contains(code, "halowait(u);") {
		t.Error("missing wait call")
	}
}

func TestEmitFullModeOverlapSections(t *testing.T) {
	code := emitDiffusion(t, halo.ModeFull)
	for _, want := range []string{
		"haloupdate_async_full(u);",
		"/* CORE section */",
		"/* REMAINDER section */",
		"x_m_core", "x_m_remainder",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("missing %q in full-mode code:\n%s", want, code)
		}
	}
	// Update must come before CORE, wait between CORE and REMAINDER.
	iUpd := strings.Index(code, "haloupdate_async_full")
	iCore := strings.Index(code, "/* CORE section */")
	iWait := strings.Index(code, "halowait")
	iRem := strings.Index(code, "/* REMAINDER section */")
	if !(iUpd < iCore && iCore < iWait && iWait < iRem) {
		t.Error("full-mode section ordering wrong")
	}
}

func TestAccessAlignmentShift(t *testing.T) {
	em := &Emitter{Halo: map[string][]int{"u": {4, 4}}, TimeBufs: map[string]int{"u": 3}}
	u := &symbolic.FuncRef{Name: "u", NDims: 2, IsTime: true, NumBufs: 3}
	// Read at offset -4 with halo 4 -> index x + 0.
	a := symbolic.Shifted(u, -1, -4, 3)
	got := render(em, a)
	if got != "u[t2][x][y + 7]" {
		t.Errorf("access = %q, want u[t2][x][y + 7]", got)
	}
}

func TestCFloatRendering(t *testing.T) {
	em := &Emitter{Halo: map[string][]int{}}
	if got := render(em, symbolic.Int(-2)); got != "-2.0F" {
		t.Errorf("int literal = %q", got)
	}
	if got := render(em, symbolic.Rat(1, 2)); got != "0.5F" {
		t.Errorf("rational literal = %q", got)
	}
	if got := render(em, symbolic.NewPow(symbolic.S("h_x"), -2)); got != "1.0F/(h_x*h_x)" {
		t.Errorf("negative pow = %q", got)
	}
	if got := render(em, symbolic.NewPow(symbolic.S("a"), 3)); got != "(a*a*a)" {
		t.Errorf("positive pow = %q", got)
	}
}

func render(em *Emitter, e symbolic.Expr) string {
	var b strings.Builder
	em.writeExpr(&b, e)
	return b.String()
}
