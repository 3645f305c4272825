package propagators

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"devigo/internal/core"
	"devigo/internal/halo"
	"devigo/internal/mpi"
)

// A world of one is the serial case under every mode: OnRank hands back
// the undecomposed model and a nil context, so the run is the nil-ctx run,
// bit for bit.
func TestOnRankWorldOfOneIsSerial(t *testing.T) {
	shape := []int{24, 24}
	const so, nt = 4, 20
	for _, name := range []string{"acoustic", "elastic"} {
		want := runSerial(t, name, shape, so, nt)
		for _, mode := range []halo.Mode{halo.ModeNone, halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull} {
			var got *RunResult
			err := mpi.RunRanks(1, func(c *mpi.Comm) error {
				m, ctx, err := OnRank(c, name, serialCfg(shape, so), mode, nil)
				if err != nil {
					return err
				}
				if ctx != nil {
					return fmt.Errorf("world of one got a context: %+v", ctx)
				}
				if m.Cfg.Decomp != nil {
					return errors.New("world of one got a decomposed model")
				}
				got, err = Run(m, ctx, RunConfig{NT: nt, NReceivers: 4})
				return err
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mode, err)
			}
			if got.Norm != want.Norm {
				t.Errorf("%s/%s: world-of-one norm %v != serial %v", name, mode, got.Norm, want.Norm)
			}
			assertSameTraces(t, name, want.Receivers, got.Receivers)
		}
	}
	if m, ctx, err := OnRank(nil, "acoustic", serialCfg(shape, so), halo.ModeBasic, nil); err != nil || ctx != nil || m == nil {
		t.Errorf("nil Comm: model %v, ctx %v, err %v", m, ctx, err)
	}
	bad := serialCfg(shape, so)
	bad.Rank = 1
	if _, _, err := OnRank(nil, "acoustic", bad, halo.ModeBasic, nil); err == nil {
		t.Error("pre-decomposed Config accepted; OnRank owns the decomposition")
	}
}

// Mode none on a world of four decomposes nothing and runs nothing: every
// rank's OnRank fails, and the world's error names the mode and the world
// size instead of a norm from a run that skipped its exchanges.
func TestOnRankModeNoneFailsItsWorld(t *testing.T) {
	err := returnsWithin(t, 10*time.Second, func() error {
		return mpi.RunRanks(4, func(c *mpi.Comm) error {
			m, ctx, err := OnRank(c, "acoustic", serialCfg([]int{24, 24}, 4), halo.ModeNone, nil)
			if err != nil {
				return err
			}
			_, err = Run(m, ctx, RunConfig{NT: 10})
			return err
		})
	})
	if err == nil || !strings.HasPrefix(err.Error(), "mpi: rank ") ||
		!strings.Contains(err.Error(), "halo mode none") || !strings.Contains(err.Error(), "4 ranks") {
		t.Fatalf("got %v, want a rank's error naming mode none and 4 ranks", err)
	}
}

// returnsWithin fails the test — instead of wedging the suite — when f is
// still running after d.
func returnsWithin(t *testing.T, d time.Duration, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("still blocked after %s", d)
		return nil
	}
}

// A rank that dies mid-run — after exchanges have already completed —
// while its three peers sit in the next halo exchange (a blocking Recv in
// the exchanger's Finish, under every mode) fails the world with its own
// error.
func TestFailedRankUnblocksHaloExchange(t *testing.T) {
	shape := []int{24, 24}
	for _, mode := range []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull} {
		for _, byPanic := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/panic=%v", mode, byPanic), func(t *testing.T) {
				err := returnsWithin(t, 10*time.Second, func() error {
					return mpi.RunRanks(4, func(c *mpi.Comm) error {
						m, ctx, err := OnRank(c, "acoustic", serialCfg(shape, 4), mode, []int{2, 2})
						if err != nil {
							return err
						}
						op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, ctx, &core.Options{Name: m.Name})
						if err != nil {
							return err
						}
						defer op.Close()
						apply := func(lo, hi int) error {
							return op.Apply(&core.ApplyOpts{TimeM: lo, TimeN: hi,
								Syms: map[string]float64{"dt": m.CriticalDt}})
						}
						if err := apply(0, 3); err != nil {
							return err
						}
						if c.Rank() == 2 {
							if byPanic {
								panic("disk full")
							}
							return errors.New("disk full")
						}
						return apply(4, 19)
					})
				})
				if err == nil || !strings.HasPrefix(err.Error(), "mpi: rank 2: ") || !strings.Contains(err.Error(), "disk full") {
					t.Fatalf("got %v, want rank 2's own failure", err)
				}
			})
		}
	}
}
