package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"devigo/internal/core"
	"devigo/internal/field"
	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/native"
	"devigo/internal/obs"
	"devigo/internal/propagators"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

// hoisted sums what an operator's kernels hoist (see
// native.Kernel.Hoisted).
func hoisted(t *testing.T, op *core.Operator) (segments, rows, bytes int) {
	t.Helper()
	for _, k := range op.Kernels() {
		nk, ok := k.(*native.Kernel)
		if !ok {
			t.Fatalf("%s: kernel is a %T, want *native.Kernel", op.Name, k)
		}
		s, r, b := nk.Hoisted()
		segments, rows, bytes = segments+s, rows+r, bytes+b
	}
	return segments, rows, bytes
}

// TestHoistedSegmentsPerModel pins which chain segments hold still
// through an Apply, and how many rows the steps read back, at so 8 in
// 2-D: acoustic's damping reciprocal (forward and adjoint) is one segment
// and one row; TTI's second kernel hoists the damping product and four
// chains on m built on it, two of which the steps read; no elastic or
// viscoelastic chain reads only parameters.
func TestHoistedSegmentsPerModel(t *testing.T) {
	want := map[string][2]int{"acoustic": {1, 1}, "tti": {5, 2}, "elastic": {0, 0}, "viscoelastic": {0, 0}}
	check := func(name string, m *propagators.Model) {
		op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, &core.Options{Name: m.Name})
		if err != nil {
			t.Fatal(err)
		}
		defer op.Close()
		if s, r, _ := hoisted(t, op); [2]int{s, r} != want[name] {
			t.Errorf("%s hoists %d segments into %d rows, want %v", name, s, r, want[name])
		}
	}
	for _, name := range propagators.ModelNames() {
		m, err := propagators.Build(name, propagators.Config{Shape: []int{24, 24}, SpaceOrder: 8, NBL: 4, Velocity: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		check(name, m)
		if name == "acoustic" {
			adj, err := propagators.Adjoint(m)
			if err != nil {
				t.Fatal(err)
			}
			check(name, adj)
		}
	}
}

// bitsOf is what a run leaves behind, as bits: named scalars and traces,
// then every buffer of every field of the model, halos included.
type bitsOf map[string][]uint64

func (b bitsOf) floats(name string, vs ...float64) {
	for _, v := range vs {
		b[name] = append(b[name], math.Float64bits(v))
	}
}

func (b bitsOf) fields(m *propagators.Model) {
	for name, f := range m.Fields {
		for bi, buf := range f.Bufs {
			key := fmt.Sprintf("%s[%d]", name, bi)
			for _, v := range buf.Data {
				b[key] = append(b[key], uint64(math.Float32bits(v)))
			}
		}
	}
}

// roughen varies a parameter from point to point, so that a hoisted row
// read at the wrong point shows.
func roughen(f *field.Function) {
	for _, b := range f.Bufs {
		for i, v := range b.Data {
			b.Data[i] = v * (1 + 0.125*float32(i%7)/7)
		}
	}
}

// hoistConfig is one cell of the differential matrix.
type hoistConfig struct {
	ranks   int
	mode    halo.Mode
	k       int
	workers int
}

func (c hoistConfig) String() string {
	if c.ranks == 1 {
		return fmt.Sprintf("serial/w%d", c.workers)
	}
	return fmt.Sprintf("%dranks/%s/k%d/w%d", c.ranks, c.mode, c.k, c.workers)
}

// hoistMatrix is serial, and 2 ranks in every halo mode at exchange
// intervals 1 and 4, each on one and two workers.
func hoistMatrix() []hoistConfig {
	cs := []hoistConfig{{1, halo.ModeNone, 1, 1}, {1, halo.ModeNone, 1, 2}}
	for _, mode := range []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull} {
		for _, k := range []int{1, 4} {
			for _, w := range []int{1, 2} {
				cs = append(cs, hoistConfig{2, mode, k, w})
			}
		}
	}
	return cs
}

// runHoisted runs one model per rank under the budget and returns each
// rank's bits and how many bytes of hoisted rows its operators kept.
func runHoisted(t *testing.T, budget int, model string, shape []int, c hoistConfig, gradient bool) ([]bitsOf, []int) {
	t.Helper()
	restore := core.SetMaxHoistBytes(budget)
	defer restore()
	out, kept := make([]bitsOf, c.ranks), make([]int, c.ranks)
	err := mpi.RunRanks(c.ranks, func(comm *mpi.Comm) error {
		cfg := propagators.Config{Shape: shape, SpaceOrder: 4, NBL: 4, Velocity: 1.5}
		m, ctx, err := propagators.OnRank(comm, model, cfg, c.mode, nil)
		if err != nil {
			return err
		}
		roughen(m.Fields["m"])
		exec := propagators.Exec{Workers: c.workers, TimeTile: c.k, Autotune: core.AutotuneOff}
		b, r := bitsOf{}, comm.Rank()
		if gradient {
			res, err := propagators.RunGradient(m, ctx, propagators.GradientConfig{NT: 14, NReceivers: 4, CheckpointInterval: 4, Exec: exec})
			if err != nil {
				return err
			}
			b.floats("grad_norm", res.GradNorm)
			b.floats("src_traces", res.SrcTraces...)
			for _, row := range res.Receivers {
				b.floats("receivers", row...)
			}
			for _, v := range res.Gradient.Bufs[0].Data {
				b["gradient"] = append(b["gradient"], uint64(math.Float32bits(v)))
			}
		} else {
			res, err := propagators.Run(m, ctx, propagators.RunConfig{NT: 14, NReceivers: 4, Exec: exec})
			if err != nil {
				return err
			}
			defer res.Op.Close()
			b.floats("norm", res.Norm)
			for _, row := range res.Receivers {
				b.floats("receivers", row...)
			}
			_, _, kept[r] = hoisted(t, res.Op)
		}
		b.fields(m)
		out[r] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, kept
}

// TestHoistedMatchesInline holds the hoisted path to the inline one bit
// for bit: with the budget at 0 every step runs every chain, with no
// budget the invariant ones run once per Apply. Acoustic and TTI forward
// runs (TTI in 3-D too, whose CIRE scratch kernel hoists over its
// extended box) and an acoustic gradient (forward, recompute, reverse
// adjoint and imaging Applies) over serial and 2-rank worlds in every
// halo mode, at exchange intervals 1 and 4, on one and two workers:
// norms, receivers, source traces, the gradient and every field buffer
// must agree.
func TestHoistedMatchesInline(t *testing.T) {
	for _, run := range []struct {
		name, model string
		shape       []int
		gradient    bool
	}{
		{"acoustic", "acoustic", []int{32, 32}, false},
		{"tti", "tti", []int{32, 32}, false},
		{"tti3d", "tti", []int{12, 12, 12}, false},
		{"gradient", "acoustic", []int{32, 32}, true},
	} {
		for _, c := range hoistMatrix() {
			t.Run(run.name+"/"+c.String(), func(t *testing.T) {
				gradient := run.gradient
				inline, keptInline := runHoisted(t, 0, run.model, run.shape, c, gradient)
				hoist, keptHoist := runHoisted(t, math.MaxInt, run.model, run.shape, c, gradient)
				for r := range inline {
					if !gradient && (keptInline[r] != 0 || keptHoist[r] == 0) {
						t.Fatalf("rank %d: hoisted rows of %d B at budget 0 and %d B unbounded: the two paths are not the inline and the hoisted one",
							r, keptInline[r], keptHoist[r])
					}
					for key, want := range inline[r] {
						got := hoist[r][key]
						if len(got) != len(want) {
							t.Fatalf("rank %d %s: %d values hoisted, %d inline", r, key, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("rank %d %s[%d]: hoisted %#x, inline %#x", r, key, i, got[i], want[i])
							}
						}
					}
				}
			})
		}
	}
}

// TestImagingGradientNeverHoists: the imaging condition grad -= u.dt2*v
// reads grad, a single-buffer field, but its own kernel writes it, so no
// chain of it holds still.
func TestImagingGradientNeverHoists(t *testing.T) {
	fwd, err := propagators.Build("acoustic", propagators.Config{Shape: []int{24, 24}, SpaceOrder: 8, NBL: 4, Velocity: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	adj, err := propagators.Adjoint(fwd)
	if err != nil {
		t.Fatal(err)
	}
	grad, err := field.NewFunction("grad", fwd.Grid, fwd.SpaceOrder, nil)
	if err != nil {
		t.Fatal(err)
	}
	u, v := fwd.Fields[fwd.WaveFields[0]], adj.Fields[adj.WaveFields[0]]
	eq := symbolic.Eq{LHS: symbolic.At(grad.Ref), RHS: symbolic.Sub(symbolic.At(grad.Ref),
		symbolic.NewMul(symbolic.Dt2(symbolic.At(u.Ref), 2), symbolic.At(v.Ref)))}
	op, err := core.NewOperator([]symbolic.Eq{eq}, map[string]*field.Function{"grad": grad, u.Name: u, v.Name: v}, fwd.Grid, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	if s, r, _ := hoisted(t, op); s != 0 || r != 0 {
		t.Errorf("the imaging operator hoists %d segments into %d rows, want none", s, r)
	}
}

// TestHoistBudgetDecision pins, by the rows a kernel keeps after an
// Apply, which operators hoist under the default budget: a 256² acoustic
// problem over 2 ranks does, a 2048² serial one, whose rows would take
// 32 MiB, does not.
func TestHoistBudgetDecision(t *testing.T) {
	kept := func(shape []int, ranks int) []int {
		out := make([]int, ranks)
		err := mpi.RunRanks(ranks, func(c *mpi.Comm) error {
			cfg := propagators.Config{Shape: shape, SpaceOrder: 8, NBL: 8, Velocity: 1.5}
			m, ctx, err := propagators.OnRank(c, "acoustic", cfg, halo.ModeDiagonal, nil)
			if err != nil {
				return err
			}
			op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, ctx, &core.Options{Name: m.Name, Workers: 1, TimeTile: 1})
			if err != nil {
				return err
			}
			defer op.Close()
			if err := op.Apply(&core.ApplyOpts{TimeM: 0, TimeN: 1, Syms: map[string]float64{"dt": m.CriticalDt}, Autotune: core.AutotuneOff}); err != nil {
				return err
			}
			_, _, out[c.Rank()] = hoisted(t, op)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for r, b := range kept([]int{256, 256}, 2) {
		t.Logf("256² over 2 ranks: rank %d keeps %d B of hoisted rows", r, b)
		if b == 0 || b > 1<<20 {
			t.Errorf("256² over 2 ranks: rank %d keeps %d B of hoisted rows, want some, within 1 MiB", r, b)
		}
	}
	if testing.Short() {
		return
	}
	if b := kept([]int{2048, 2048}, 1)[0]; b != 0 {
		t.Errorf("2048² serial keeps %d B of hoisted rows, want none: they exceed the budget", b)
	}
}

// pairOps builds the acoustic model twice and one operator on each, the
// native engine's and the bytecode engine's.
func pairOps(t *testing.T) (nat, ref *core.Operator, mNat, mRef *propagators.Model) {
	t.Helper()
	var ops [2]*core.Operator
	var ms [2]*propagators.Model
	for i, engine := range []string{core.EngineNative, core.EngineBytecode} {
		m, err := propagators.Build("acoustic", propagators.Config{Shape: []int{24, 24}, SpaceOrder: 4, NBL: 4, Velocity: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		roughen(m.Fields["m"])
		for _, b := range m.Fields["u"].Bufs {
			for i := range b.Data {
				b.Data[i] = float32(i%11) / 11
			}
		}
		op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, &core.Options{Name: m.Name, Engine: engine, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(op.Close)
		ops[i], ms[i] = op, m
	}
	return ops[0], ops[1], ms[0], ms[1]
}

// sameWavefield fails unless both models' wavefield buffers agree bit for
// bit.
func sameWavefield(t *testing.T, what string, a, b *propagators.Model) {
	t.Helper()
	for bi, buf := range a.Fields["u"].Bufs {
		for i, v := range buf.Data {
			if w := b.Fields["u"].Bufs[bi].Data[i]; math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("%s: u buffer %d point %d: native %v, bytecode %v", what, bi, i, v, w)
			}
		}
	}
}

// TestHoistSeesParameterWrites: a write to m between two Applies is in
// the second Apply's hoisted rows — the native engine agrees with the
// bytecode engine, which hoists nothing, bit for bit.
func TestHoistSeesParameterWrites(t *testing.T) {
	nat, ref, mNat, mRef := pairOps(t)
	apply := func(op *core.Operator, m *propagators.Model, from int) {
		err := op.Apply(&core.ApplyOpts{TimeM: from, TimeN: from + 4, Syms: map[string]float64{"dt": m.CriticalDt}, Autotune: core.AutotuneOff})
		if err != nil {
			t.Fatal(err)
		}
	}
	apply(nat, mNat, 0)
	apply(ref, mRef, 0)
	sameWavefield(t, "first Apply", mNat, mRef)
	for _, m := range []*propagators.Model{mNat, mRef} {
		for i := range m.Fields["m"].Bufs[0].Data {
			m.Fields["m"].Bufs[0].Data[i] *= 1.25
		}
	}
	apply(nat, mNat, 5)
	apply(ref, mRef, 5)
	sameWavefield(t, "second Apply, after a write to m", mNat, mRef)
}

// TestBareKernelRunRunsEveryChain: a kernel run outside an Apply runs
// every chain, so it reads the parameters as they are, not as the last
// Apply's priming saw them.
func TestBareKernelRunRunsEveryChain(t *testing.T) {
	nat, ref, mNat, mRef := pairOps(t)
	for _, c := range []struct {
		op *core.Operator
		m  *propagators.Model
	}{{nat, mNat}, {ref, mRef}} {
		if err := c.op.Apply(&core.ApplyOpts{TimeM: 0, TimeN: 2, Syms: map[string]float64{"dt": c.m.CriticalDt}, Autotune: core.AutotuneOff}); err != nil {
			t.Fatal(err)
		}
		for i := range c.m.Fields["m"].Bufs[0].Data {
			c.m.Fields["m"].Bufs[0].Data[i] *= 0.75
		}
		box := runtime.Box{Lo: []int{0, 0}, Hi: append([]int(nil), c.m.Fields["u"].LocalShape...)}
		for i, k := range c.op.Kernels() {
			k.Run(3, box, c.op.BoundSyms()[i], nil)
		}
	}
	if s, _, _ := hoisted(t, nat); s == 0 {
		t.Fatal("the native operator hoists nothing: the test shows nothing")
	}
	sameWavefield(t, "bare Run after an Apply and a write to m", mNat, mRef)
}

// TestHoistSpan: a traced Apply that primes records one hoist span, at
// step -1, on the compute clock; one under a zero budget records none.
func TestHoistSpan(t *testing.T) {
	for _, budget := range []int{math.MaxInt, 0} {
		obs.Reset()
		obs.EnableTracing()
		nat, _, m, _ := pairOps(t)
		restore := core.SetMaxHoistBytes(budget)
		err := nat.Apply(&core.ApplyOpts{TimeM: 0, TimeN: 1, Syms: map[string]float64{"dt": m.CriticalDt}, Autotune: core.AutotuneOff})
		restore()
		obs.DisableAll()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		obs.Reset()
		var doc struct {
			TraceEvents []struct {
				Ph, Name string
				Args     struct{ Step int }
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		spans := 0
		for _, e := range doc.TraceEvents {
			if e.Ph == "X" && e.Name == obs.PhaseHoist.String() {
				spans++
				if e.Args.Step != -1 {
					t.Errorf("hoist span at step %d, want -1", e.Args.Step)
				}
			}
		}
		if want := map[bool]int{true: 1, false: 0}[budget > 0]; spans != want {
			t.Errorf("budget %d: %d hoist spans, want %d", budget, spans, want)
		}
	}
}
