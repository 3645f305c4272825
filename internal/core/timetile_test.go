package core

import (
	"fmt"
	"strings"
	"testing"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/halo"
	"devigo/internal/iet"
	"devigo/internal/mpi"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

func TestRemainderBoxesPartition(t *testing.T) {
	outer := runtime.Box{Lo: []int{-2, -3}, Hi: []int{10, 11}}
	inner := runtime.Box{Lo: []int{1, 2}, Hi: []int{7, 8}}
	rem := remainderBoxes(outer, inner)
	total := inner.Size()
	for i, b := range rem {
		total += b.Size()
		// Disjoint from inner and from each other.
		for d := range b.Lo {
			if b.Lo[d] < outer.Lo[d] || b.Hi[d] > outer.Hi[d] {
				t.Errorf("box %d escapes outer: %+v", i, b)
			}
		}
	}
	if total != outer.Size() {
		t.Errorf("partition covers %d points, outer has %d", total, outer.Size())
	}
	// Empty inner: the whole outer comes back.
	rem = remainderBoxes(outer, runtime.Box{Lo: []int{0, 0}, Hi: []int{0, 0}})
	sum := 0
	for _, b := range rem {
		sum += b.Size()
	}
	if sum != outer.Size() {
		t.Errorf("empty-inner partition covers %d, want %d", sum, outer.Size())
	}
}

func TestResolveTimeTile(t *testing.T) {
	if k, err := resolveTimeTile(0); err != nil || k != 1 {
		t.Errorf("default = %d, %v; want 1", k, err)
	}
	if k, err := resolveTimeTile(6); err != nil || k != 6 {
		t.Errorf("explicit = %d, %v; want 6", k, err)
	}
	t.Setenv(TimeTileEnvVar, "4")
	if k, err := resolveTimeTile(0); err != nil || k != 4 {
		t.Errorf("env = %d, %v; want 4", k, err)
	}
	t.Setenv(TimeTileEnvVar, "zero")
	if _, err := resolveTimeTile(0); err == nil || !strings.Contains(err.Error(), TimeTileEnvVar) {
		t.Errorf("bad env accepted: %v", err)
	}
	if _, err := resolveTimeTile(-1); err == nil {
		t.Error("negative interval accepted")
	}
}

// ttOperator builds a distributed diffusion-style operator on one rank of
// a 4-rank world and hands it to fn.
func ttOperator(t *testing.T, k int, mode halo.Mode, fn func(c *mpi.Comm, op *Operator, u *field.TimeFunction)) {
	t.Helper()
	shape := []int{16, 16}
	err := mpi.RunRanks(4, func(c *mpi.Comm) error {
		g := grid.MustNew(shape, nil)
		ctx, err := rankContext(c, g, []int{2, 2}, mode)
		if err != nil {
			return err
		}
		u, err := field.NewTimeFunction("u", g, 2, 1, &field.Config{Decomp: ctx.Decomp, Rank: c.Rank()})
		if err != nil {
			return err
		}
		upd := symbolic.NewAdd(symbolic.At(u.Ref),
			symbolic.NewMul(symbolic.Float(0.1), symbolic.Laplace(symbolic.At(u.Ref), 2, 2)))
		eq := symbolic.Eq{LHS: symbolic.ForwardStencil(u.Ref), RHS: upd}
		op, err := NewOperator([]symbolic.Eq{eq}, map[string]*field.Function{"u": &u.Function}, g, ctx,
			&Options{TimeTile: k})
		if err != nil {
			return err
		}
		fn(c, op, u)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The tiled IET replaces the time loop with a TimeTile node carrying the
// tile-start exchange, and the generated source shows the tiled loop.
func TestTimeTileLoweringAndCode(t *testing.T) {
	ttOperator(t, 4, halo.ModeDiagonal, func(c *mpi.Comm, op *Operator, u *field.TimeFunction) {
		if op.TimeTile() != 4 {
			t.Errorf("effective interval = %d, want 4", op.TimeTile())
		}
		tiles := iet.CountNodes(op.Tree, func(n iet.Node) bool { _, ok := n.(iet.TimeTile); return ok })
		loops := iet.CountNodes(op.Tree, func(n iet.Node) bool { _, ok := n.(iet.TimeLoop); return ok })
		if tiles != 1 || loops != 0 {
			t.Errorf("tree has %d TimeTile / %d TimeLoop nodes, want 1 / 0", tiles, loops)
		}
		if !strings.Contains(op.CCode, "haloupdate_deep") || !strings.Contains(op.CCode, "tile += 4") {
			t.Errorf("generated code lacks the tiled structure:\n%s", op.CCode)
		}
		// The plan deepened the ghost allocation: width (k-1)*1 + 1 = 4
		// for the radius-1 stencil (space order 2 allocates base 2).
		if u.Halo[0] < 4 {
			t.Errorf("ghost width %d too shallow for k=4 radius-1", u.Halo[0])
		}
	})
}

// Reconfigure switches the interval live without recompiling kernels, and
// switching back restores the classic lowering.
func TestReconfigureLive(t *testing.T) {
	ttOperator(t, 1, halo.ModeDiagonal, func(c *mpi.Comm, op *Operator, u *field.TimeFunction) {
		if op.TimeTile() != 1 {
			t.Fatalf("initial interval = %d", op.TimeTile())
		}
		if err := op.Reconfigure(halo.ModeDiagonal, 4); err != nil {
			t.Fatal(err)
		}
		if op.TimeTile() != 4 {
			t.Errorf("after reconfigure interval = %d, want 4", op.TimeTile())
		}
		if !strings.Contains(op.CCode, "haloupdate_deep") {
			t.Error("reconfigured code lacks the deep update")
		}
		if err := op.Reconfigure(halo.ModeDiagonal, 1); err != nil {
			t.Fatal(err)
		}
		if op.TimeTile() != 1 || strings.Contains(op.CCode, "haloupdate_deep") {
			t.Errorf("reconfigure back to 1 left interval %d / tiled code", op.TimeTile())
		}
		if err := op.Reconfigure(halo.ModeDiagonal, 0); err == nil {
			t.Error("interval 0 accepted")
		}
	})
	g := grid.MustNew([]int{8, 8}, nil)
	u, _ := field.NewTimeFunction("u", g, 2, 1, nil)
	if err := buildDiffusionOp(t, g, u, nil).Reconfigure(halo.ModeDiagonal, 1); err == nil {
		t.Error("Reconfigure accepted a serial operator")
	}
}

// Applying with tiling is bit-exact vs k=1 on raw operators too (no
// propagator machinery), and CommStats reports the amortized reduction.
func TestTimeTileApplyBitExactAndCommStats(t *testing.T) {
	norms := map[int]float32{}
	stats := map[int]CommStats{}
	for _, k := range []int{1, 4} {
		k := k
		ttOperator(t, k, halo.ModeBasic, func(c *mpi.Comm, op *Operator, u *field.TimeFunction) {
			// Deterministic initial condition from global coordinates.
			for i := 0; i < u.LocalShape[0]; i++ {
				for j := 0; j < u.LocalShape[1]; j++ {
					gx, gy := u.Origin[0]+i, u.Origin[1]+j
					u.SetDomain(0, float32(gx*31+gy*7)/100, i, j)
				}
			}
			if err := op.Apply(&ApplyOpts{TimeM: 0, TimeN: 9, Syms: map[string]float64{"dt": 1}}); err != nil {
				panic(err) // fail the world: the peers go on to the allreduce below
			}
			sum := float32(0)
			for i := 0; i < u.LocalShape[0]; i++ {
				for j := 0; j < u.LocalShape[1]; j++ {
					sum += u.AtDomain(10, i, j)
				}
			}
			sum = float32(c.AllreduceScalar(float64(sum), mpi.OpSum))
			if c.Rank() == 0 {
				norms[k] = sum
				stats[k] = op.CommStats()
			}
		})
	}
	if norms[1] != norms[4] {
		t.Errorf("k=4 checksum %v != k=1 checksum %v", norms[4], norms[1])
	}
	if stats[4].MsgsPerStep >= stats[1].MsgsPerStep/2 {
		t.Errorf("CommStats msgs/step at k=4 = %v, want < half of k=1's %v",
			stats[4].MsgsPerStep, stats[1].MsgsPerStep)
	}
	if stats[4].TimeTile != 4 || stats[1].TimeTile != 1 {
		t.Errorf("CommStats intervals = %d/%d, want 4/1", stats[4].TimeTile, stats[1].TimeTile)
	}
}

// The profile exposes the k-axis bounds: closed (1) for default
// operators — the tuner never changes the communication schedule of an
// operator that did not provision deep halos — and open up to the
// feasibility limit once an interval was requested.
func TestTimeTileProfileAndCandidates(t *testing.T) {
	ttOperator(t, 1, halo.ModeDiagonal, func(c *mpi.Comm, op *Operator, u *field.TimeFunction) {
		prof := op.Profile()
		if prof.TimeTile != 1 {
			t.Errorf("profile interval = %d, want 1", prof.TimeTile)
		}
		if prof.TileStride != 1 || prof.TileStreams != 1 {
			t.Errorf("tile stride/streams = %d/%d, want 1/1", prof.TileStride, prof.TileStreams)
		}
		if prof.MaxTimeTile != 1 {
			t.Errorf("unprovisioned MaxTimeTile = %d, want 1", prof.MaxTimeTile)
		}
	})
	ttOperator(t, 4, halo.ModeDiagonal, func(c *mpi.Comm, op *Operator, u *field.TimeFunction) {
		prof := op.Profile()
		if prof.TimeTile != 4 {
			t.Errorf("provisioned profile interval = %d, want 4", prof.TimeTile)
		}
		if prof.MaxTimeTile < 4 {
			t.Errorf("provisioned MaxTimeTile = %d, want >= 4", prof.MaxTimeTile)
		}
	})
}

// A sibling operator that grows shared ghost storage makes this operator's
// exchangers and generated source stale; its next Apply re-derives both,
// so CCode equals that of a fresh operator built on the grown fields.
func TestSiblingHaloGrowthReEmitsCode(t *testing.T) {
	err := mpi.RunRanks(4, func(c *mpi.Comm) error {
		g := grid.MustNew([]int{16, 16}, nil)
		ctx, err := rankContext(c, g, []int{2, 2}, halo.ModeDiagonal)
		if err != nil {
			return err
		}
		fc := &field.Config{Decomp: ctx.Decomp, Rank: c.Rank()}
		m, err := field.NewFunction("m", g, 2, fc)
		if err != nil {
			return err
		}
		u, err := field.NewTimeFunction("u", g, 2, 1, fc)
		if err != nil {
			return err
		}
		v, err := field.NewTimeFunction("v", g, 2, 1, fc)
		if err != nil {
			return err
		}
		// build makes a diffusion operator over a wavefield and the shared
		// parameter m.
		build := func(u *field.TimeFunction, k int) (*Operator, error) {
			upd := symbolic.NewAdd(symbolic.At(u.Ref),
				symbolic.NewMul(symbolic.Float(0.1), symbolic.At(m.Ref), symbolic.Laplace(symbolic.At(u.Ref), 2, 2)))
			return NewOperator([]symbolic.Eq{{LHS: symbolic.ForwardStencil(u.Ref), RHS: upd}},
				map[string]*field.Function{u.Name: &u.Function, "m": m}, g, ctx, &Options{TimeTile: k})
		}
		first, err := build(u, 1)
		if err != nil {
			return err
		}
		before, width := first.CCode, m.Halo[0]
		if _, err := build(v, 4); err != nil {
			return err
		}
		if m.Halo[0] <= width {
			return fmt.Errorf("the tiled sibling left m's ghost width at %d; the test needs it grown", m.Halo[0])
		}
		if err := first.Apply(&ApplyOpts{TimeM: 0, TimeN: 0, Syms: map[string]float64{"dt": 1}}); err != nil {
			return err
		}
		if first.CCode == before {
			t.Error("CCode still indexes m by its old ghost width after Apply")
		}
		fresh, err := build(u, 1) // over the same, now grown, storage
		if err != nil {
			return err
		}
		if first.CCode != fresh.CCode {
			t.Errorf("re-emitted code differs from a fresh operator's:\n--- applied ---\n%s\n--- fresh ---\n%s",
				first.CCode, fresh.CCode)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
