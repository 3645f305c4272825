package devigo

import (
	"fmt"
	"testing"

	"devigo/internal/core"
)

// runPublicDMP executes the miniature seismic workflow through the public
// API on 4 ranks — grid, PDE, operator, source injection, receiver
// interpolation — and returns the rank-0 traces. The exchange interval is
// requested purely through DEVIGO_TIME_TILE (the zero-code-changes path).
func runPublicDMP(t *testing.T, mode string) [][]float64 {
	t.Helper()
	var traces [][]float64
	err := RunDMP(DMPConfig{Ranks: 4, Mode: mode}, func(env *Env) error {
		g, err := env.NewGrid([]int{24, 24}, []float64{23, 23}, []int{2, 2})
		if err != nil {
			return err
		}
		u, err := NewTimeFunction("u", g, 4, 2)
		if err != nil {
			return err
		}
		m, err := NewFunction("m", g, 4)
		if err != nil {
			return err
		}
		if err := m.Data().SetSlice(0, []Slice{SliceAll(), SliceAll()}, 1); err != nil {
			return err
		}
		pde := Sub(Mul(m.At(), u.Dt2()), u.Laplace())
		upd, err := Solve(Eq(pde, Num(0)), u.Forward())
		if err != nil {
			return err
		}
		op, err := NewOperator(g, Assign(u.Forward(), upd))
		if err != nil {
			return err
		}
		src, err := NewSparseFunction("src", g, [][]float64{{11.5, 11.5}})
		if err != nil {
			return err
		}
		rec, err := NewSparseFunction("rec", g, [][]float64{{5.0, 5.0}, {18.0, 18.0}})
		if err != nil {
			return err
		}
		nt, dt := 40, 0.4
		wavelet := RickerWavelet(0.12, 12, dt, nt)
		var local [][]float64
		if err := op.Apply(ApplyConfig{TimeM: 0, TimeN: nt - 1, DT: dt, PostStep: func(tt int) {
			_ = src.Inject(&u.Function, tt+1, []float32{wavelet[tt] * float32(dt*dt)})
			local = append(local, rec.Interpolate(&u.Function, tt+1))
		}}); err != nil {
			return err
		}
		if env.Rank() == 0 {
			traces = local
			if got := op.Config().TimeTile; got < 1 {
				return fmt.Errorf("bad effective interval %d", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

// DEVIGO_TIME_TILE through the public API must be bit-exact with k=1,
// source injection included: the public SparseFunction.Inject mirrors
// contributions into ghost copies so the redundant shell recompute
// observes the same post-injection data the owning rank has.
func TestPublicAPITimeTileBitExact(t *testing.T) {
	for _, mode := range []string{"basic", "diag", "full"} {
		t.Run(mode, func(t *testing.T) {
			t.Setenv(core.TimeTileEnvVar, "")
			ref := runPublicDMP(t, mode)
			t.Setenv(core.TimeTileEnvVar, "4")
			tiled := runPublicDMP(t, mode)
			for tt := range ref {
				for r := range ref[tt] {
					if ref[tt][r] != tiled[tt][r] {
						t.Fatalf("trace (%d,%d) diverges under DEVIGO_TIME_TILE=4: %v vs %v",
							tt, r, ref[tt][r], tiled[tt][r])
					}
				}
			}
		})
	}
}
