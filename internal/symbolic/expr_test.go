package symbolic

import (
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
)

func ratSlice(vals ...int64) []*big.Rat {
	out := make([]*big.Rat, len(vals))
	for i, v := range vals {
		out[i] = big.NewRat(v, 1)
	}
	return out
}

func TestFDWeightsSecondDerivativeOrder2(t *testing.T) {
	w, err := FDWeights(2, ratSlice(-1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "-2", "1"}
	for i, s := range want {
		if w[i].RatString() != s {
			t.Errorf("weight[%d] = %s, want %s", i, w[i].RatString(), s)
		}
	}
}

func TestFDWeightsSecondDerivativeOrder4(t *testing.T) {
	w, err := FDWeights(2, ratSlice(-2, -1, 0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"-1/12", "4/3", "-5/2", "4/3", "-1/12"}
	for i, s := range want {
		if w[i].RatString() != s {
			t.Errorf("weight[%d] = %s, want %s", i, w[i].RatString(), s)
		}
	}
}

func TestFDWeightsFirstDerivativeOrder2(t *testing.T) {
	w, err := FDWeights(1, ratSlice(-1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"-1/2", "0", "1/2"}
	for i, s := range want {
		if w[i].RatString() != s {
			t.Errorf("weight[%d] = %s, want %s", i, w[i].RatString(), s)
		}
	}
}

func TestFDWeightsStaggeredFirstDerivative(t *testing.T) {
	// Forward staggered, order 2: points at -1/2, +1/2 -> weights -1, 1.
	offs := StaggeredOffsets(2, +1)
	w, err := FDWeights(1, offs)
	if err != nil {
		t.Fatal(err)
	}
	if w[0].RatString() != "-1" || w[1].RatString() != "1" {
		t.Errorf("staggered order-2 weights = %v, want [-1 1]", w)
	}
	// Order 4: classic (1/24, -9/8, 9/8, -1/24).
	offs = StaggeredOffsets(4, +1)
	w, err = FDWeights(1, offs)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1/24", "-9/8", "9/8", "-1/24"}
	for i, s := range want {
		if w[i].RatString() != s {
			t.Errorf("staggered order-4 weight[%d] = %s, want %s", i, w[i].RatString(), s)
		}
	}
}

func TestFDWeightsSumToZeroForDerivatives(t *testing.T) {
	// Derivative weights of any order >= 1 must annihilate constants.
	for _, acc := range []int{2, 4, 8, 12, 16} {
		for _, m := range []int{1, 2} {
			offs := CentralOffsets(m, acc)
			w, err := FDWeights(m, offs)
			if err != nil {
				t.Fatalf("acc %d m %d: %v", acc, m, err)
			}
			sum := new(big.Rat)
			for _, x := range w {
				sum.Add(sum, x)
			}
			if sum.Sign() != 0 {
				t.Errorf("acc %d m %d: weights sum to %s, want 0", acc, m, sum.RatString())
			}
		}
	}
}

func TestFDWeightsNumericalAccuracy(t *testing.T) {
	// d2/dx2 of sin(x) at x0 should converge at the advertised order.
	x0 := 0.7
	exact := -math.Sin(x0)
	errAt := func(acc int, h float64) float64 {
		offs := CentralOffsets(2, acc)
		w, err := FDWeights(2, offs)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for i, o := range offs {
			of, _ := o.Float64()
			wf, _ := w[i].Float64()
			sum += wf * math.Sin(x0+of*h)
		}
		return math.Abs(sum/(h*h) - exact)
	}
	for _, acc := range []int{2, 4} {
		e1 := errAt(acc, 0.1)
		e2 := errAt(acc, 0.05)
		order := math.Log2(e1 / e2)
		if order < float64(acc)-0.7 {
			t.Errorf("acc %d: measured convergence order %.2f too low (errors %g -> %g)", acc, order, e1, e2)
		}
	}
	// High orders reach the float64 noise floor at these h; just require a
	// tiny absolute error rather than a measurable convergence rate.
	if e := errAt(8, 0.1); e > 1e-10 {
		t.Errorf("acc 8 error %g too large", e)
	}
}

func TestCollectMergesLikeTerms(t *testing.T) {
	a := S("a")
	b := S("b")
	// 2a + 3a + b - b = 5a
	e := NewAdd(NewMul(Int(2), a), NewMul(Int(3), a), b, Neg(b))
	got := Collect(e)
	want := NewMul(Int(5), a)
	if got.String() != want.String() {
		t.Errorf("Collect = %s, want %s", got, want)
	}
}

func TestCollectDistributes(t *testing.T) {
	a, b, c := S("a"), S("b"), S("c")
	e := NewMul(NewAdd(a, b), c)
	got := Collect(e)
	want := Collect(NewAdd(NewMul(a, c), NewMul(b, c)))
	if got.String() != want.String() {
		t.Errorf("Collect((a+b)c) = %s, want %s", got, want)
	}
}

func TestSolveLinear(t *testing.T) {
	// 3x + 6 = 0 -> x = -2
	x := S("x")
	sol, err := Solve(Eq{LHS: NewAdd(NewMul(Int(3), x), Int(6)), RHS: Int(0)}, x)
	if err != nil {
		t.Fatal(err)
	}
	if sol.String() != "-2" {
		t.Errorf("Solve = %s, want -2", sol)
	}
}

func TestSolveNonLinearFails(t *testing.T) {
	x := S("x")
	_, err := Solve(Eq{LHS: NewMul(x, x), RHS: Int(4)}, x)
	if err == nil {
		t.Fatal("expected error solving quadratic")
	}
}

func TestSolveMissingTargetFails(t *testing.T) {
	x, y := S("x"), S("y")
	_, err := Solve(Eq{LHS: y, RHS: Int(4)}, x)
	if err == nil {
		t.Fatal("expected error when target absent")
	}
}

func TestSolveDiffusionUpdate(t *testing.T) {
	// Paper Listing 1: Eq(u.dt, u.laplace) solved for u.forward in 2D,
	// SDO 2, time order 1 (forward Euler). The update must be
	//   u[t+1] = u[t] + dt*( (u[t,x-1]+u[t,x+1]-2u)/h_x^2 + ... ).
	u := &FuncRef{Name: "u", NDims: 2, IsTime: true, NumBufs: 2}
	eq := Eq{LHS: Dt(At(u), 1), RHS: Laplace(At(u), 2, 2)}
	fwd := ForwardStencil(u)
	sol, err := Solve(eq, fwd)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate both sides numerically on a synthetic field.
	field := func(fun *FuncRef, timeOff int, off []int) float64 {
		// A smooth function of the offsets; t contributes too.
		return 1.3*float64(off[0]) + 0.7*float64(off[1])*float64(off[1]) + 0.1*float64(timeOff)
	}
	env := &Env{Syms: map[string]float64{"dt": 0.01, "h_x": 0.5, "h_y": 0.5}, Field: field}
	got := Eval(sol, env)
	// Hand-computed forward-Euler update.
	lap := (field(u, 0, []int{-1, 0}) - 2*field(u, 0, []int{0, 0}) + field(u, 0, []int{1, 0})) / 0.25
	lap += (field(u, 0, []int{0, -1}) - 2*field(u, 0, []int{0, 0}) + field(u, 0, []int{0, 1})) / 0.25
	want := field(u, 0, []int{0, 0}) + 0.01*lap
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("diffusion update = %g, want %g", got, want)
	}
}

func TestStencilRadius(t *testing.T) {
	u := &FuncRef{Name: "u", NDims: 3, IsTime: true, NumBufs: 3}
	e := ExpandDerivatives(Laplace(At(u), 3, 8))
	r := StencilRadius(e, 3)
	for d, got := range r {
		if got != 4 {
			t.Errorf("radius[%d] = %d, want 4 for SDO 8", d, got)
		}
	}
}

func TestExpandSecondTimeDerivative(t *testing.T) {
	u := &FuncRef{Name: "u", NDims: 1, IsTime: true, NumBufs: 3}
	e := ExpandDerivatives(Dt2(At(u), 2))
	// (u[t-1] - 2u[t] + u[t+1]) / dt^2
	field := func(fun *FuncRef, timeOff int, off []int) float64 {
		return float64(timeOff * timeOff) // f(t)=t^2 -> f'' = 2
	}
	env := &Env{Syms: map[string]float64{"dt": 1}, Field: field}
	if got := Eval(e, env); math.Abs(got-2) > 1e-12 {
		t.Errorf("dt2 of t^2 = %g, want 2", got)
	}
}

func TestHoistInvariants(t *testing.T) {
	u := &FuncRef{Name: "u", NDims: 1, IsTime: true, NumBufs: 2}
	hx := S("h_x")
	inv := NewPow(hx, -2)
	e := NewAdd(NewMul(inv, At(u)), NewMul(inv, ForwardStencil(u)))
	n := 0
	assigns, out := HoistInvariants([]Keyed{KeyOf(e)}, &n)
	if len(assigns) != 1 {
		t.Fatalf("want 1 hoisted invariant, got %d", len(assigns))
	}
	if assigns[0].Name != "r0" {
		t.Errorf("temp name = %s, want r0", assigns[0].Name)
	}
	// The rewritten expression must reference r0 and contain no Pow.
	hasPow := false
	Walk(out[0].Expr, func(x Expr) bool {
		if _, ok := x.(Pow); ok {
			hasPow = true
		}
		return true
	})
	if hasPow {
		t.Error("invariant Pow not hoisted")
	}
}

func TestCSEExtractsRepeats(t *testing.T) {
	a, b := S("a"), S("b")
	sub := NewMul(a, b, Int(2))
	e1 := NewAdd(sub, Int(1))
	e2 := NewAdd(sub, Int(5))
	n := 0
	assigns, kn := CSE([]Keyed{KeyOf(e1), KeyOf(e2)}, &n)
	if len(assigns) != 1 {
		t.Fatalf("want 1 CSE temp, got %d (%v)", len(assigns), assigns)
	}
	for _, k := range kn.RHS {
		o := k.Expr
		found := false
		Walk(o, func(x Expr) bool {
			if s, ok := x.(Sym); ok && s.Name == assigns[0].Name {
				found = true
			}
			return true
		})
		if !found {
			t.Errorf("rewritten %s does not use temp", o)
		}
	}
}

func TestCollectPreservesEvaluation(t *testing.T) {
	// Property: Collect(e) evaluates to the same value as e for random
	// polynomial-ish expressions.
	f := func(ai, bi, ci int8, x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		// Clamp magnitudes to keep float comparisons meaningful.
		if math.Abs(x) > 1e3 || math.Abs(y) > 1e3 {
			return true
		}
		a, b, c := int64(ai), int64(bi), int64(ci)
		sx, sy := S("x"), S("y")
		e := NewAdd(
			NewMul(Int(a), sx, sy),
			NewMul(Int(b), sx),
			NewMul(Int(c), sy, sx),
			NewPow(NewAdd(sx, sy), 2),
		)
		env := &Env{Syms: map[string]float64{"x": x, "y": y}}
		v1 := Eval(e, env)
		v2 := Eval(Collect(e), env)
		diff := math.Abs(v1 - v2)
		scale := math.Max(1, math.Max(math.Abs(v1), math.Abs(v2)))
		return diff/scale < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCollectIdempotent(t *testing.T) {
	f := func(ai, bi int8) bool {
		a, b := int64(ai), int64(bi)
		sx, sy := S("x"), S("y")
		e := NewAdd(NewMul(Int(a), sx), NewMul(Int(b), sy), NewMul(sx, sy))
		c1 := Collect(e)
		c2 := Collect(c1)
		return c1.String() == c2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEqualNormalises(t *testing.T) {
	a, b := S("a"), S("b")
	if !Equal(NewAdd(a, b), NewAdd(b, a)) {
		t.Error("a+b should equal b+a")
	}
	if Equal(NewAdd(a, b), NewAdd(a, a)) {
		t.Error("a+b should not equal a+a")
	}
}

func TestFlopCount(t *testing.T) {
	a, b := S("a"), S("b")
	if got := FlopCount(NewAdd(a, b)); got != 1 {
		t.Errorf("flops(a+b) = %d, want 1", got)
	}
	e := NewMul(Int(2), a, b) // 2 mults
	if got := FlopCount(e); got != 2 {
		t.Errorf("flops(2ab) = %d, want 2", got)
	}
}

func TestAccessString(t *testing.T) {
	u := &FuncRef{Name: "u", NDims: 2, IsTime: true, NumBufs: 3}
	a := Shifted(u, 1, 2, -1)
	if a.String() != "u[t+1,x+2,y-1]" {
		t.Errorf("Access.String = %s", a.String())
	}
}

func TestCentralOffsetsRadius(t *testing.T) {
	for _, tc := range []struct{ m, acc, wantLen int }{
		{1, 2, 3}, {2, 2, 3}, {1, 8, 9}, {2, 8, 9}, {2, 16, 17},
	} {
		offs := CentralOffsets(tc.m, tc.acc)
		if len(offs) != tc.wantLen {
			t.Errorf("CentralOffsets(%d,%d) len = %d, want %d", tc.m, tc.acc, len(offs), tc.wantLen)
		}
	}
}

// refString is the fmt-based renderer String had before appendExpr: the
// oracle appendExpr must match byte for byte.
func refString(e Expr) string {
	names := []string{"x", "y", "z", "w"}
	switch v := e.(type) {
	case Num:
		if v.Val.IsInt() {
			return v.Val.Num().String()
		}
		return v.Val.RatString()
	case Sym:
		return v.Name
	case Access:
		var b strings.Builder
		b.WriteString(v.Fun.Name)
		b.WriteByte('[')
		if v.Fun.IsTime {
			switch {
			case v.TimeOff == 0:
				b.WriteString("t")
			case v.TimeOff > 0:
				fmt.Fprintf(&b, "t+%d", v.TimeOff)
			default:
				fmt.Fprintf(&b, "t%d", v.TimeOff)
			}
			if v.Fun.NDims > 0 {
				b.WriteByte(',')
			}
		}
		for i, o := range v.Off {
			if i > 0 {
				b.WriteByte(',')
			}
			d := names[i%len(names)]
			switch {
			case o == 0:
				b.WriteString(d)
			case o > 0:
				fmt.Fprintf(&b, "%s+%d", d, o)
			default:
				fmt.Fprintf(&b, "%s%d", d, o)
			}
		}
		b.WriteByte(']')
		return b.String()
	case Add:
		parts := make([]string, len(v.Terms))
		for i, t := range v.Terms {
			parts[i] = refString(t)
		}
		return "(" + strings.Join(parts, " + ") + ")"
	case Mul:
		parts := make([]string, len(v.Factors))
		for i, f := range v.Factors {
			parts[i] = refString(f)
		}
		return strings.Join(parts, "*")
	case Pow:
		return fmt.Sprintf("%s**%d", refString(v.Base), v.Exp)
	case Deriv:
		dim := "t"
		if v.Dim >= 0 {
			dim = names[v.Dim%4]
		}
		return fmt.Sprintf("d%d(%s)/d%s%d", v.Order, refString(v.Target), dim, v.Order)
	}
	return "?"
}

// checkRender reports the first node of e whose String differs from
// refString's rendering.
func checkRender(e Expr) error {
	var err error
	Walk(e, func(n Expr) bool {
		if got, want := n.String(), refString(n); err == nil && got != want {
			err = fmt.Errorf("String() = %q, reference renders %q", got, want)
		}
		return err == nil
	})
	return err
}

// operands lists e's operands in the order Keyed.Ops holds them.
func operands(e Expr) []Expr {
	switch v := e.(type) {
	case Add:
		return v.Terms
	case Mul:
		return v.Factors
	case Pow:
		return []Expr{v.Base}
	case Deriv:
		return []Expr{v.Target}
	}
	return nil
}

// checkKeyed reports the first node of a keyed tree whose key is not its
// expression's String, whose flop count is not FlopCount's, whose variant
// mark is wrong (it holds an Access, a Deriv or a symbol temps names), or
// whose operands are not its expression's.
func checkKeyed(k Keyed, temps map[string]bool) error {
	if want := k.Expr.String(); k.Key != want {
		return fmt.Errorf("key %q, String() %q", k.Key, want)
	}
	if want := FlopCount(k.Expr); k.Flops() != want {
		return fmt.Errorf("%s: composed %d flops, FlopCount %d", k.Key, k.Flops(), want)
	}
	variant := false
	Walk(k.Expr, func(n Expr) bool {
		switch v := n.(type) {
		case Access, Deriv:
			variant = true
		case Sym:
			variant = variant || temps[v.Name]
		}
		return !variant
	})
	if k.variant != variant {
		return fmt.Errorf("%s: variant %v, want %v", k.Key, k.variant, variant)
	}
	ops := operands(k.Expr)
	if len(ops) != len(k.Ops) {
		return fmt.Errorf("%s: %d keyed operands for %d", k.Key, len(k.Ops), len(ops))
	}
	for i, o := range k.Ops {
		if o.Expr.String() != ops[i].String() {
			return fmt.Errorf("%s: keyed operand %d is %s, the expression's %s", k.Key, i, o.Expr, ops[i])
		}
		if err := checkKeyed(o, temps); err != nil {
			return err
		}
	}
	return nil
}

// checkKeyedWalks runs every keyed walk over exprs — KeyOf, the keyed
// FactorCommon, HoistInvariants and CSE chained as iet.Build chains them,
// KeyNest over CSE's output, and a transform that checks each node it
// visits and replaces every power and every product holding one by a
// symbol — and reports the first node whose keyed form is wrong. The
// transformed trees are checked too, rebuilt nodes and reused ones alike.
func checkKeyedWalks(exprs []Expr) error {
	ks := make([]Keyed, len(exprs))
	for i, e := range exprs {
		ks[i] = KeyOf(e)
	}
	var trees []Keyed
	trees = append(trees, ks...)
	factored := make([]Keyed, len(ks))
	for i, k := range ks {
		factored[i] = FactorCommon(k)
	}
	trees = append(trees, factored...)
	temp := 0
	_, hoisted := HoistInvariants(factored, &temp)
	trees = append(trees, hoisted...)
	assigns, kn := CSE(hoisted, &temp)
	temps := map[string]bool{}
	for _, a := range assigns {
		temps[a.Name] = true
	}
	eqs := make([]Eq, len(kn.RHS))
	for i, k := range kn.RHS {
		eqs[i] = Eq{LHS: S("lhs"), RHS: k.Expr}
	}
	rekeyed := KeyNest(assigns, eqs)
	for _, nest := range []KeyedNest{kn, rekeyed} {
		for _, k := range append(nest.Temps, nest.RHS...) {
			if err := checkKeyed(k, temps); err != nil {
				return err
			}
		}
	}
	var visitErr error
	probe := func(n Keyed) (Keyed, bool) {
		if err := checkKeyed(n, nil); err != nil && visitErr == nil {
			visitErr = err
		}
		if _, isPow := n.Expr.(Pow); isPow || strings.Contains(n.Key, "**") {
			return leafKey(S("p")), true
		}
		return n, false
	}
	for _, k := range ks {
		r, _ := transformKeyed(k, probe)
		trees = append(trees, r)
	}
	if visitErr != nil {
		return visitErr
	}
	for _, k := range trees {
		if err := checkKeyed(k, nil); err != nil {
			return err
		}
	}
	return nil
}

func TestRenderHandCases(t *testing.T) {
	u := &FuncRef{Name: "u", NDims: 2, IsTime: true, NumBufs: 3}
	w := &FuncRef{Name: "w", NDims: 4, IsTime: true, NumBufs: 2}
	m := &FuncRef{Name: "m", NDims: 3}
	s := &FuncRef{Name: "s", IsTime: true, NumBufs: 2}
	huge := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 80), big.NewInt(-3))
	a, b := S("a"), S("b")
	cases := []Expr{
		Rat(-3, 4), Rat(7, 2), Int(-5), Int(0), Num{Val: huge}, Float(0.1),
		Shifted(u, -2, 0, 0), Shifted(u, 1, 3, -1), Shifted(u, 0, -12, 7),
		Shifted(w, -1, 1, -2, 0, 4), Shifted(m, 0, 0, 5, -5), Access{Fun: s, TimeOff: 2},
		Dt2(At(u), 2), Dt(Shifted(w, 0, 0, 0, 0, 1), 1),
		Deriv{Target: At(w), Dim: 3, Order: 2, FDOrder: 4}, DxStaggered(At(m), 2, 8, -1),
		NewPow(NewAdd(a, b), -1), NewPow(NewAdd(a, Rat(-1, 2)), -3), NewPow(b, 2),
		NewMul(Rat(-7, 3), a, NewPow(NewAdd(Shifted(u, -1, 1, 0), Int(2)), -2)),
		Add{Terms: []Expr{a}}, Mul{Factors: []Expr{Int(1), Mul{Factors: []Expr{b, a}}}},
		Laplace(Shifted(u, 1, 0, 0), 2, 4),
	}
	for _, e := range cases {
		if err := checkRender(e); err != nil {
			t.Errorf("%s: %v", refString(e), err)
		}
	}
	if got, want := (Eq{LHS: ForwardStencil(u), RHS: cases[19]}).String(),
		refString(ForwardStencil(u))+" = "+refString(cases[19]); got != want {
		t.Errorf("Eq.String() = %q, want %q", got, want)
	}
	if err := checkKeyedWalks(cases); err != nil {
		t.Error(err)
	}
}

// TestCollectLeavesSharedCoefficients merges terms whose coefficients are
// one *big.Rat, and terms with no coefficient (whose implicit 1 is the
// package's shared one): the sums are new rationals, and every input still
// reads as it did.
func TestCollectLeavesSharedCoefficients(t *testing.T) {
	c := Rat(1, 3)
	x, y := S("x"), S("y")
	t1, t2 := NewMul(c, x), NewMul(c, x)
	if t1.(Mul).Factors[0].(Num).Val != c.Val {
		t.Fatal("NewMul copied a lone coefficient instead of sharing it")
	}
	got := Collect(NewAdd(t1, t2, y, y))
	if got.String() != "(2/3*x + 2*y)" {
		t.Errorf("Collect = %s, want (2/3*x + 2*y)", got)
	}
	for _, c := range []struct {
		e    Expr
		want string
	}{{c, "1/3"}, {t1, "1/3*x"}, {t2, "1/3*x"}, {OneExpr, "1"}, {ZeroExpr, "0"}, {minusOne, "-1"}, {Num{Val: ratOne}, "1"}} {
		if c.e.String() != c.want {
			t.Errorf("an input changed: %s, want %s", c.e, c.want)
		}
	}
}
