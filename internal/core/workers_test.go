package core

import (
	"slices"
	"strings"
	"testing"

	"devigo/internal/ddata"
	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/halo"
	"devigo/internal/mpi"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

func TestResolveWorkersVocabulary(t *testing.T) {
	// Explicit request wins over everything.
	if got, err := ResolveWorkers(3); err != nil || got != 3 {
		t.Errorf("ResolveWorkers(3) = %d, %v; want 3", got, err)
	}
	// Unset everywhere -> 0 (unforced: the autotuner may pick a team).
	if got, err := ResolveWorkers(0); err != nil || got != 0 {
		t.Errorf("ResolveWorkers(0) = %d, %v; want 0", got, err)
	}
	// Environment fallback, with surrounding whitespace tolerated.
	t.Setenv(WorkersEnvVar, " 4 ")
	if got, err := ResolveWorkers(0); err != nil || got != 4 {
		t.Errorf("env ResolveWorkers(0) = %d, %v; want 4", got, err)
	}
	// Explicit still wins over the environment.
	if got, err := ResolveWorkers(2); err != nil || got != 2 {
		t.Errorf("explicit over env = %d, %v; want 2", got, err)
	}
}

func TestResolveWorkersRejectsBad(t *testing.T) {
	if _, err := ResolveWorkers(-1); err == nil ||
		!strings.Contains(err.Error(), "Options.Workers") {
		t.Errorf("negative explicit count should blame Options.Workers, got %v", err)
	}
	for _, bad := range []string{"zero", "0", "-2", "1.5"} {
		t.Setenv(WorkersEnvVar, bad)
		_, err := ResolveWorkers(0)
		if err == nil {
			t.Errorf("bad $%s=%q accepted", WorkersEnvVar, bad)
			continue
		}
		for _, frag := range []string{`"` + bad + `"`, "$" + WorkersEnvVar} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("workers env error %q lacks %q", err, frag)
			}
		}
	}
}

func TestBadWorkersEnvPropagatesFromNewOperator(t *testing.T) {
	t.Setenv(WorkersEnvVar, "many")
	_, err := NewOperator(nil, nil, nil, nil, &Options{Name: "wcfgtest"})
	if err == nil || !strings.Contains(err.Error(), "$"+WorkersEnvVar) {
		t.Fatalf("NewOperator with bad $%s: got %v, want a configuration error naming the variable",
			WorkersEnvVar, err)
	}
}

// applyDiffusion runs nt steps of the Listing-1 diffusion operator with
// the given options and returns the final buffer plus the operator.
func applyDiffusion(t *testing.T, opts *Options, nt int) ([]float32, *Operator) {
	t.Helper()
	g := grid.MustNew([]int{24, 16}, []float64{23, 15})
	u, err := field.NewTimeFunction("u", g, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range u.Buf(0).Data {
		u.Buf(0).Data[i] = float32(i%29) * 0.125
	}
	op := buildDiffusionOpWith(t, g, u, opts)
	if err := op.Apply(&ApplyOpts{TimeM: 0, TimeN: nt - 1, Syms: map[string]float64{"dt": 0.05}}); err != nil {
		t.Fatal(err)
	}
	out := make([]float32, len(u.Buf(nt).Data))
	copy(out, u.Buf(nt).Data)
	return out, op
}

func buildDiffusionOpWith(t *testing.T, g *grid.Grid, u *field.TimeFunction, opts *Options) *Operator {
	return buildDiffusionOpWithCtx(t, g, u, nil, opts)
}

func buildDiffusionOpWithCtx(t *testing.T, g *grid.Grid, u *field.TimeFunction, ctx *Context, opts *Options) *Operator {
	t.Helper()
	eq := symbolic.Eq{
		LHS: symbolic.Dt(symbolic.At(u.Ref), 1),
		RHS: symbolic.Laplace(symbolic.At(u.Ref), g.NDims(), u.SpaceOrder),
	}
	sol, err := symbolic.Solve(eq, symbolic.ForwardStencil(u.Ref))
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewOperator(
		[]symbolic.Eq{{LHS: symbolic.ForwardStencil(u.Ref), RHS: sol}},
		map[string]*field.Function{"u": &u.Function}, g, ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestOperatorPoolLifecycle(t *testing.T) {
	serial, opS := applyDiffusion(t, nil, 4)
	if opS.Pool() != nil {
		t.Fatal("serial operator spawned a pool")
	}

	got, op := applyDiffusion(t, &Options{Workers: 3}, 4)
	defer op.Close()
	p := op.Pool()
	if p == nil || p.Workers() != 3 {
		t.Fatalf("Workers:3 operator pool = %v", p)
	}
	for i := range serial {
		if got[i] != serial[i] {
			t.Fatalf("pooled result diverges from serial at %d: %v != %v", i, got[i], serial[i])
		}
	}
	if st := p.Stats(); st.Dispatches == 0 {
		t.Fatal("pool recorded no dispatches during Apply")
	}

	// The pool persists across Apply calls: same team, more dispatches.
	before := p.Stats().Dispatches
	if err := op.Apply(&ApplyOpts{TimeM: 4, TimeN: 5, Syms: map[string]float64{"dt": 0.05}}); err != nil {
		t.Fatal(err)
	}
	if op.Pool() != p {
		t.Fatal("Apply replaced the persistent pool")
	}
	if after := p.Stats().Dispatches; after <= before {
		t.Fatalf("second Apply dispatched nothing (%d -> %d)", before, after)
	}

	// Close releases the team; the next Apply respawns a fresh one.
	op.Close()
	if op.Pool() != nil {
		t.Fatal("Close left the pool attached")
	}
	if !p.Closed() {
		t.Fatal("Close did not close the team")
	}
	if err := op.Apply(&ApplyOpts{TimeM: 6, TimeN: 6, Syms: map[string]float64{"dt": 0.05}}); err != nil {
		t.Fatal(err)
	}
	p2 := op.Pool()
	if p2 == nil || p2 == p || p2.Workers() != 3 {
		t.Fatalf("Apply after Close: pool = %v (old %v)", p2, p)
	}
	op.Close()
	op.Close() // idempotent
}

func TestWorkersEnvSpawnsPool(t *testing.T) {
	t.Setenv(WorkersEnvVar, "2")
	serial := func() []float32 {
		t.Setenv(WorkersEnvVar, "")
		out, _ := applyDiffusion(t, nil, 3)
		return out
	}()
	t.Setenv(WorkersEnvVar, "2")
	got, op := applyDiffusion(t, nil, 3)
	defer op.Close()
	if p := op.Pool(); p == nil || p.Workers() != 2 {
		t.Fatalf("$%s=2 pool = %v", WorkersEnvVar, op.Pool())
	}
	for i := range serial {
		if got[i] != serial[i] {
			t.Fatalf("env-pooled result diverges at %d: %v != %v", i, got[i], serial[i])
		}
	}
}

// TestPoolSurvivesReconfigureChurn drives a multi-worker operator built
// with time tile 4 through mid-run reconfigure churn (interval 4 -> 1 -> 4
// and mode) on every rank of a 4-rank world: the persistent team must
// survive every transition (same pool object — those calls never change
// the worker count), the ghost storage must not move, and the final
// wavefield must stay bit-identical to an unchurned serial-worker run.
// Each rank owns 36 rows: tiles of runtime.TileRows end on a partial one,
// and their count divides over neither team. The race job runs this
// under -race to certify the park/dispatch protocol against the
// exchanger rebuilds.
func TestPoolSurvivesReconfigureChurn(t *testing.T) {
	const rows = 36
	ntiles := (rows + runtime.TileRows - 1) / runtime.TileRows
	if rows%runtime.TileRows == 0 || ntiles%3 == 0 || ntiles%7 == 0 {
		t.Fatalf("%d rows in tiles of %d no longer split unevenly over 3 and 7 workers", rows, runtime.TileRows)
	}
	run := func(workers int, churn bool) []float32 {
		g := grid.MustNew([]int{2 * rows, 16}, nil)
		var out []float32
		err := mpi.RunRanks(4, func(c *mpi.Comm) error {
			dec, err := grid.NewDecomposition(g, c.Size(), []int{2, 2})
			if err != nil {
				return err
			}
			ctx, err := NewContext(c, dec, halo.ModeDiagonal)
			if err != nil {
				return err
			}
			u, err := field.NewTimeFunction("u", g, 2, 1, &field.Config{Decomp: dec, Rank: c.Rank()})
			if err != nil {
				return err
			}
			arr := ddata.New(&u.Function, dec, c.Rank())
			all := []ddata.Slice{ddata.SliceAll(), ddata.SliceAll()}
			_ = arr.SetFunc(0, all, func(gc []int) float32 {
				return float32(gc[0]*3+gc[1]) * 0.01
			})
			op := buildDiffusionOpWithCtx(t, g, u, ctx, &Options{Workers: workers, TimeTile: 4})
			defer op.Close()
			apply := func(lo, hi int) error {
				return op.Apply(&ApplyOpts{TimeM: lo, TimeN: hi, Syms: map[string]float64{"dt": 0.05}})
			}
			if err := apply(0, 3); err != nil {
				return err
			}
			p := op.Pool()
			if workers > 1 && (p == nil || p.Workers() != workers) {
				t.Errorf("rank %d: pool = %v before churn", c.Rank(), p)
			}
			ghosts := slices.Clone(u.Halo)
			if churn {
				if err := op.reconfigure(halo.ModeDiagonal, 1); err != nil {
					return err
				}
			}
			if err := apply(4, 11); err != nil {
				return err
			}
			if churn {
				if err := op.reconfigure(halo.ModeDiagonal, 4); err != nil {
					return err
				}
				if err := op.reconfigure(halo.ModeFull, 4); err != nil {
					return err
				}
				if op.TimeTile() != 4 {
					t.Errorf("rank %d: churn ended at interval %d, want 4", c.Rank(), op.TimeTile())
				}
			}
			if err := apply(12, 15); err != nil {
				return err
			}
			if workers > 1 && op.Pool() != p {
				t.Errorf("rank %d: churn replaced the persistent pool", c.Rank())
			}
			if !slices.Equal(u.Halo, ghosts) {
				t.Errorf("rank %d: churn moved the ghost width from %v to %v", c.Rank(), ghosts, u.Halo)
			}
			res := arr.Gather(c, 0, 16)
			if c.Rank() == 0 {
				out = res
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1, false)
	for _, workers := range []int{3, 7} {
		got := run(workers, true)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d churned result diverges at %d: %v != %v", workers, i, got[i], want[i])
			}
		}
	}
}
