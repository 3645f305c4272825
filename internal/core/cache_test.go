package core

import (
	"testing"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/opcache"
	"devigo/internal/symbolic"
)

// diffusionSetup builds a fresh diffusion equation set over fresh storage,
// the raw inputs of scheduleKey and NewOperator.
func diffusionSetup(t *testing.T, shape []int, so int) ([]symbolic.Eq, map[string]*field.Function, *grid.Grid, *field.TimeFunction) {
	t.Helper()
	g := grid.MustNew(shape, nil)
	u, err := field.NewTimeFunction("u", g, so, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	eq := symbolic.Eq{
		LHS: symbolic.Dt(symbolic.At(u.Ref), 1),
		RHS: symbolic.Laplace(symbolic.At(u.Ref), g.NDims(), u.SpaceOrder),
	}
	sol, err := symbolic.Solve(eq, symbolic.ForwardStencil(u.Ref))
	if err != nil {
		t.Fatal(err)
	}
	eqs := []symbolic.Eq{{LHS: symbolic.ForwardStencil(u.Ref), RHS: sol}}
	return eqs, map[string]*field.Function{"u": &u.Function}, g, u
}

// TestScheduleKeyIdentity: identical equations over distinct storage must
// share one key — the property the whole cache rests on — and so must
// grids of another shape: the front-end reads only the dimension count.
func TestScheduleKeyIdentity(t *testing.T) {
	eqs1, f1, g1, _ := diffusionSetup(t, []int{16, 16}, 2)
	eqs2, f2, _, _ := diffusionSetup(t, []int{16, 16}, 2)
	eqs3, f3, _, _ := diffusionSetup(t, []int{24, 40}, 2)
	k1 := scheduleKey(eqs1, f1, g1.NDims())
	if k1 == "" || k1 != scheduleKey(eqs2, f2, 2) || k1 != scheduleKey(eqs3, f3, 2) {
		t.Fatalf("identical equations must share a key")
	}
}

// TestScheduleKeyDistinguishes: each input the front-end reads must
// perturb the key; a collision here would serve a wrong schedule.
func TestScheduleKeyDistinguishes(t *testing.T) {
	eqs, fields, _, _ := diffusionSetup(t, []int{16, 16}, 2)
	base := scheduleKey(eqs, fields, 2)

	variants := map[string]string{}
	{ // space order changes the stencil coefficients and halo reads
		e, f, _, _ := diffusionSetup(t, []int{16, 16}, 4)
		variants["space order"] = scheduleKey(e, f, 2)
	}
	{ // a third dimension changes the Laplacian
		e, f, _, _ := diffusionSetup(t, []int{16, 16, 16}, 2)
		variants["dimensions"] = scheduleKey(e, f, 3)
	}
	{ // time-buffer count decides which fields are time functions
		e, f, g, _ := diffusionSetup(t, []int{16, 16}, 2)
		v, err := field.NewTimeFunction("u", g, 2, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		f["u"] = &v.Function
		variants["time buffers"] = scheduleKey(e, f, 2)
	}
	seen := map[string]string{base: "base"}
	for what, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s did not perturb the key (collides with %s)", what, prev)
		}
		seen[k] = what
	}
}

// TestCachedOperatorBitExactAndCounted: a second operator built from the
// same equations through one cache must (a) adopt the first one's lowered
// schedule, (b) compile kernels of its own against its own storage and
// (c) run bit-identically to a privately lowered one, with one miss and
// one hit on the cache.
func TestCachedOperatorBitExactAndCounted(t *testing.T) {
	for _, engine := range []string{EngineBytecode, EngineInterpreter} {
		t.Run(engine, func(t *testing.T) {
			run := func(cache *opcache.Cache) (*Operator, []float32) {
				eqs, fields, g, u := diffusionSetup(t, []int{16, 16}, 2)
				u.SetDomain(0, 1, 8, 8)
				op, err := NewOperator(eqs, fields, g, nil,
					&Options{Engine: engine, Cache: cache})
				if err != nil {
					t.Fatal(err)
				}
				h := g.Spacing(0)
				if err := op.Apply(&ApplyOpts{TimeM: 0, TimeN: 3,
					Syms: map[string]float64{"dt": 0.2 * h * h}}); err != nil {
					t.Fatal(err)
				}
				return op, append([]float32(nil), u.Buf(0).Data...)
			}

			privOp, private := run(nil)
			cache := opcache.New()
			firstOp, first := run(cache)
			secondOp, second := run(cache)
			for i := range private {
				if private[i] != first[i] || first[i] != second[i] {
					t.Fatalf("cached run diverges at %d: private=%v first=%v second=%v",
						i, private[i], first[i], second[i])
				}
			}
			if firstOp.Schedule != secondOp.Schedule || privOp.Schedule == firstOp.Schedule {
				t.Error("operators sharing a cache must share one schedule, and only they")
			}
			if firstOp.Kernels()[0] == secondOp.Kernels()[0] {
				t.Error("operators sharing a schedule must compile kernels of their own")
			}
			st := cache.Stats()
			if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
				t.Errorf("cache stats = %+v, want 1 miss + 1 hit on 1 entry", st)
			}
		})
	}
}

// TestCacheRejectsForeignEntry: a corrupt entry under a schedule key must
// surface as an error, not a crash or a silent re-lowering.
func TestCacheRejectsForeignEntry(t *testing.T) {
	eqs, fields, g, _ := diffusionSetup(t, []int{16, 16}, 2)
	cache := opcache.New()
	cache.GetOrCompute(scheduleKey(eqs, fields, g.NDims()), func() (any, error) {
		return "not a schedule", nil
	})
	_, err := NewOperator(eqs, fields, g, nil, &Options{Engine: EngineBytecode, Cache: cache})
	if err == nil {
		t.Fatal("corrupt cache entry must fail operator construction")
	}
}
