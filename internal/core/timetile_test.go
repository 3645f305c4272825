package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/halo"
	"devigo/internal/iet"
	"devigo/internal/mpi"
	"devigo/internal/obs"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

func TestRemainderBoxesPartition(t *testing.T) {
	// covers marks every point of inner and of the slabs, failing on a
	// point outside outer or covered twice, and returns the count.
	covers := func(name string, outer, inner runtime.Box, rem []runtime.Box) int {
		seen := map[[3]int]bool{}
		for i, b := range append([]runtime.Box{inner}, rem...) {
			if b.Empty() {
				if i > 0 {
					t.Errorf("%s: slab %d is empty: %+v", name, i, b)
				}
				continue
			}
			lo, hi := [3]int{}, [3]int{1, 1, 1}
			copy(lo[:], b.Lo)
			copy(hi[:], b.Hi)
			for x := lo[0]; x < hi[0]; x++ {
				for y := lo[1]; y < hi[1]; y++ {
					for z := lo[2]; z < hi[2]; z++ {
						p := [3]int{x, y, z}
						for d := range b.Lo {
							if p[d] < outer.Lo[d] || p[d] >= outer.Hi[d] {
								t.Fatalf("%s: box %d escapes outer: %+v", name, i, b)
							}
						}
						if seen[p] {
							t.Fatalf("%s: point %v covered twice", name, p)
						}
						seen[p] = true
					}
				}
			}
		}
		return len(seen)
	}
	outer := runtime.Box{Lo: []int{-2, -3}, Hi: []int{10, 11}}
	inner := runtime.Box{Lo: []int{1, 2}, Hi: []int{7, 8}}
	if n := covers("2-D", outer, inner, remainderBoxes(nil, outer, inner)); n != outer.Size() {
		t.Errorf("2-D partition covers %d points, outer has %d", n, outer.Size())
	}
	// CORE/REMAINDER of a 3-D owned box.
	shape := []int{12, 10, 8}
	owned, core := fullBox(shape), coreBox(shape, []int{4, 4, 2})
	if n := covers("3-D", owned, core, remainderBoxes(nil, owned, core)); n != owned.Size() {
		t.Errorf("3-D partition covers %d points, owned has %d", n, owned.Size())
	}
	// A local domain smaller than twice the radius has an empty CORE and
	// the REMAINDER is all of it.
	tiny := []int{4, 4}
	if core := coreBox(tiny, []int{4, 4}); !core.Empty() {
		t.Errorf("tiny-domain core = %+v, want empty", core)
	} else if n := covers("tiny", fullBox(tiny), core, remainderBoxes(nil, fullBox(tiny), core)); n != 16 {
		t.Errorf("tiny-domain remainder covers %d points, want 16", n)
	}
	// No inner box: the whole outer comes back as one box.
	rem := remainderBoxes(nil, outer, runtime.Box{Lo: outer.Lo, Hi: outer.Lo})
	if len(rem) != 1 || !reflect.DeepEqual(rem[0], outer) {
		t.Errorf("empty-inner remainder = %+v, want [%+v]", rem, outer)
	}
	// Storage kept from earlier peels, of more slabs and of fewer, gives
	// the slabs fresh storage gives, and a repeat peel allocates nothing.
	flush := runtime.Box{Lo: []int{-2, 2}, Hi: []int{7, 8}}
	for _, in := range []runtime.Box{inner, flush, inner} {
		want := remainderBoxes(nil, outer, in)
		if rem = remainderBoxes(rem, outer, in); !reflect.DeepEqual(rem, want) {
			t.Errorf("reused-storage remainder of %+v = %+v, want %+v", in, rem, want)
		}
	}
	if n := testing.AllocsPerRun(10, func() { rem = remainderBoxes(rem, outer, inner) }); n != 0 {
		t.Errorf("a repeat peel into kept storage allocates %v times", n)
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
		dec, err := grid.NewDecomposition(g, c.Size(), []int{2, 2})
		if err != nil {
			return err
		}
		ctx, err := NewContext(c, dec, mode)
		if err != nil {
			return err
		}
		u, err := field.NewTimeFunction("u", g, 2, 1, &field.Config{Decomp: dec, Rank: c.Rank()})
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

// reconfigure switches the interval live without recompiling kernels or
// touching ghost storage: switching to 1 restores the classic lowering,
// switching back restores the tile, and a deeper request than the
// construction-time allocation holds is planned within it.
func TestReconfigureLive(t *testing.T) {
	ttOperator(t, 4, halo.ModeDiagonal, func(c *mpi.Comm, op *Operator, u *field.TimeFunction) {
		if op.TimeTile() != 4 {
			t.Fatalf("initial interval = %d, want 4", op.TimeTile())
		}
		ghosts := slices.Clone(u.Halo)
		if err := op.reconfigure(halo.ModeDiagonal, 1); err != nil {
			t.Fatal(err)
		}
		if op.TimeTile() != 1 || strings.Contains(op.CCode, "haloupdate_deep") {
			t.Errorf("reconfigure to 1 left interval %d / tiled code", op.TimeTile())
		}
		if err := op.reconfigure(halo.ModeDiagonal, 4); err != nil {
			t.Fatal(err)
		}
		if op.TimeTile() != 4 || !strings.Contains(op.CCode, "haloupdate_deep") {
			t.Errorf("reconfigure back to 4 left interval %d / untiled code", op.TimeTile())
		}
		if err := op.reconfigure(halo.ModeDiagonal, 8); err != nil {
			t.Fatal(err)
		}
		if op.TimeTile() > 4 {
			t.Errorf("k=8 on storage allocated for 4 adopted interval %d", op.TimeTile())
		}
		if !slices.Equal(u.Halo, ghosts) {
			t.Errorf("reconfigure moved the ghost width from %v to %v", ghosts, u.Halo)
		}
		if err := op.reconfigure(halo.ModeDiagonal, 0); err == nil {
			t.Error("interval 0 accepted")
		}
	})
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
		dec, err := grid.NewDecomposition(g, c.Size(), []int{2, 2})
		if err != nil {
			return err
		}
		ctx, err := NewContext(c, dec, halo.ModeDiagonal)
		if err != nil {
			return err
		}
		fc := &field.Config{Decomp: dec, Rank: c.Rank()}
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

// recordedRun is one kernel Run a recKernel saw.
type recordedRun struct {
	t   int
	box runtime.Box
}

// recKernel records every Run before delegating to the compiled kernel.
type recKernel struct {
	ExecKernel
	runs *[]recordedRun
}

func (r recKernel) Run(t int, b runtime.Box, syms []float64, opts *runtime.ExecOpts) {
	*r.runs = append(*r.runs, recordedRun{t: t,
		box: runtime.Box{Lo: append([]int(nil), b.Lo...), Hi: append([]int(nil), b.Hi...)}})
	r.ExecKernel.Run(t, b, syms, opts)
}

// record applies steps [0, nt) of a ttOperator with its one kernel wrapped
// in a recKernel and hands every rank's recorded runs to check.
func record(t *testing.T, k int, mode halo.Mode, nt int, check func(rank int, op *Operator, local []int, runs []recordedRun)) {
	t.Helper()
	ttOperator(t, k, mode, func(c *mpi.Comm, op *Operator, u *field.TimeFunction) {
		var runs []recordedRun
		op.kernels[0] = recKernel{op.kernels[0], &runs}
		if err := op.Apply(&ApplyOpts{TimeM: 0, TimeN: nt - 1, Syms: map[string]float64{"dt": 1}}); err != nil {
			panic(err)
		}
		check(c.Rank(), op, u.LocalShape, runs)
	})
}

// The untraced sweep partition: a sweep that does not overlap its
// exchanges is one Run over its whole box; one that does is CORE, then
// remainderBoxes(outer, CORE) in order — at k=1 and at
// the head of a time tile, whose later substeps exchange nothing and so are
// one Run each over the shrinking box.
func TestSweepPartition(t *testing.T) {
	boxes := func(runs []recordedRun) []runtime.Box {
		var out []runtime.Box
		for _, r := range runs {
			out = append(out, r.box)
		}
		return out
	}
	for _, mode := range []halo.Mode{halo.ModeBasic, halo.ModeDiagonal} {
		record(t, 1, mode, 1, func(rank int, op *Operator, local []int, runs []recordedRun) {
			if want := []runtime.Box{fullBox(local)}; !reflect.DeepEqual(boxes(runs), want) {
				t.Errorf("%s rank %d: runs %+v, want %+v", mode, rank, boxes(runs), want)
			}
		})
	}
	record(t, 1, halo.ModeFull, 1, func(rank int, op *Operator, local []int, runs []recordedRun) {
		core := coreBox(local, op.kernels[0].StencilRadius())
		want := append([]runtime.Box{core}, remainderBoxes(nil, fullBox(local), core)...)
		if !reflect.DeepEqual(boxes(runs), want) {
			t.Errorf("full rank %d: runs %+v, want %+v", rank, boxes(runs), want)
		}
	})
	record(t, 4, halo.ModeFull, 4, func(rank int, op *Operator, local []int, runs []recordedRun) {
		core := coreBox(local, op.kernels[0].StencilRadius())
		op.tileLen = 4
		want := append([]runtime.Box{core}, remainderBoxes(nil, op.sweepBox(fullBox(local), local, 0, 0), core)...)
		for j := 1; j < 4; j++ {
			want = append(want, op.sweepBox(fullBox(local), local, j, 0))
		}
		if !reflect.DeepEqual(boxes(runs), want) {
			t.Errorf("full k=4 rank %d: runs %+v, want %+v", rank, boxes(runs), want)
		}
	})
}

// A traced run peels the ghost shell off every sweep that has one — the
// overlapped head substep of a tile included — into a shell span: under
// full with a two-step tile, each rank's trace holds exactly one, at the
// head step, and the shell passes it covers sweep exactly the points
// the shell counter reports, none of them owned.
func TestTracedOverlapHeadSplitsShell(t *testing.T) {
	obs.Reset()
	obs.EnableTracing()
	defer func() { obs.DisableAll(); obs.Reset() }()
	shellPts := map[int]int{}
	var mu sync.Mutex
	record(t, 2, halo.ModeFull, 2, func(rank int, op *Operator, local []int, runs []recordedRun) {
		core, owned := coreBox(local, op.kernels[0].StencilRadius()), fullBox(local)
		ring := remainderBoxes(nil, owned, core)
		pts := 0
		for i, r := range runs {
			switch {
			case i == 0:
				if !reflect.DeepEqual(r.box, core) {
					t.Errorf("rank %d: first run %+v, want CORE", rank, r.box)
				}
			case i <= len(ring):
				if !reflect.DeepEqual(r.box, ring[i-1]) {
					t.Errorf("rank %d: run %d = %+v, want owned remainder %+v", rank, i, r.box, ring[i-1])
				}
			case r.t == 0:
				for _, o := range append(ring, core) {
					if overlaps(r.box, o) {
						t.Errorf("rank %d: shell pass %+v recomputes owned points of %+v", rank, r.box, o)
					}
				}
				pts += r.box.Size()
			default:
				if !reflect.DeepEqual(r.box, owned) {
					t.Errorf("rank %d: last substep ran %+v, want the owned box", rank, r.box)
				}
			}
		}
		mu.Lock()
		shellPts[rank] = pts
		mu.Unlock()
	})
	obs.DisableAll()
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph, Name string
			Pid      int
			Args     struct{ Step int }
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	spans := map[int][]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Name == obs.PhaseShell.String() {
			spans[e.Pid] = append(spans[e.Pid], e.Args.Step)
		}
	}
	for _, rm := range obs.Snapshot().Ranks {
		if rm.ShellPoints == 0 {
			t.Errorf("rank %d recomputed no shell: the test needs one", rm.Rank)
		}
		if int64(shellPts[rm.Rank]) != rm.ShellPoints {
			t.Errorf("rank %d: shell passes swept %d points, CtrShellPoints = %d", rm.Rank, shellPts[rm.Rank], rm.ShellPoints)
		}
		if !reflect.DeepEqual(spans[rm.Rank], []int{0}) {
			t.Errorf("rank %d: shell spans at steps %v, want exactly one at the tile head (step 0)", rm.Rank, spans[rm.Rank])
		}
	}
}

// overlaps reports whether two boxes share a point.
func overlaps(a, b runtime.Box) bool {
	for d := range a.Lo {
		if max(a.Lo[d], b.Lo[d]) >= min(a.Hi[d], b.Hi[d]) {
			return false
		}
	}
	return true
}

// An exchanger's table fixes its regions at construction, so an operator
// whose field a sibling deepened afterwards (GrowHalo moves every owned
// and ghost cell in the buffer) must rebuild its exchangers before the
// next exchange — under basic too, which used to recompute its regions on
// every call. The grown run must reproduce an undisturbed one bit for bit.
func TestSiblingHaloGrowthRefillsGhosts(t *testing.T) {
	for _, mode := range []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull} {
		var mu sync.Mutex
		sums := map[bool]map[int][]float32{false: {}, true: {}}
		for _, grow := range []bool{false, true} {
			ttOperator(t, 1, mode, func(c *mpi.Comm, op *Operator, u *field.TimeFunction) {
				for i := 0; i < u.LocalShape[0]; i++ {
					for j := 0; j < u.LocalShape[1]; j++ {
						u.SetDomain(0, float32((u.Origin[0]+i)*31+(u.Origin[1]+j)*7)/100, i, j)
					}
				}
				run := func(m, n int) {
					if err := op.Apply(&ApplyOpts{TimeM: m, TimeN: n, Syms: map[string]float64{"dt": 1}}); err != nil {
						panic(err)
					}
				}
				run(0, 1) // the exchangers have run at the original width
				if grow {
					width := u.Halo[0]
					u.GrowHalo([]int{width + 3, width + 3})
					if u.Halo[0] != width+3 {
						panic("GrowHalo left the ghost width unchanged")
					}
				}
				run(2, 3)
				var owned []float32
				for i := 0; i < u.LocalShape[0]; i++ {
					for j := 0; j < u.LocalShape[1]; j++ {
						owned = append(owned, u.AtDomain(4, i, j))
					}
				}
				mu.Lock()
				sums[grow][c.Rank()] = owned
				mu.Unlock()
			})
		}
		if !reflect.DeepEqual(sums[true], sums[false]) {
			t.Errorf("%s: a run whose field grew between Applies diverges from an undisturbed one", mode)
		}
	}
}

// A classic (k=1) operator exchanges the ghost width its field was
// allocated with, whatever a time-tiled sibling built over the same field
// grew it to since: the third of three operators over one u (k=1, then
// k=4, which deepens u's halo, then k=1 again) ships the first one's
// traffic.
func TestSiblingGrowthKeepsClassicExchangeDepth(t *testing.T) {
	err := mpi.RunRanks(4, func(c *mpi.Comm) error {
		g := grid.MustNew([]int{64, 64}, nil)
		dec, err := grid.NewDecomposition(g, c.Size(), []int{2, 2})
		if err != nil {
			return err
		}
		ctx, err := NewContext(c, dec, halo.ModeDiagonal)
		if err != nil {
			return err
		}
		u, err := field.NewTimeFunction("u", g, 4, 1, &field.Config{Decomp: dec, Rank: c.Rank()})
		if err != nil {
			return err
		}
		upd := symbolic.NewAdd(symbolic.At(u.Ref),
			symbolic.NewMul(symbolic.Float(0.1), symbolic.Laplace(symbolic.At(u.Ref), 2, 4)))
		eq := symbolic.Eq{LHS: symbolic.ForwardStencil(u.Ref), RHS: upd}
		allocated := u.Halo[0]
		var stats []CommStats
		for _, k := range []int{1, 4, 1} {
			op, err := NewOperator([]symbolic.Eq{eq}, map[string]*field.Function{"u": &u.Function}, g, ctx,
				&Options{TimeTile: k})
			if err != nil {
				return err
			}
			stats = append(stats, op.CommStats())
			op.Close()
		}
		if u.Halo[0] <= allocated {
			return fmt.Errorf("the k=4 operator left u's halo at %v: the test needs it deepened", u.Halo)
		}
		if stats[2] != stats[0] {
			return fmt.Errorf("k=1 operator built after a k=4 sibling ships %+v, the first k=1 operator %+v", stats[2], stats[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// InjectDepth is derived with the program, not per call: a PostStep hook
// reads it every step without allocating, and it keeps the value the
// fields' ghost widths give — nil at k=1, the widest ghost per dimension
// under a tile plan, and the grown width once an Apply has seen a tiled
// sibling deepen the shared storage.
func TestInjectDepthIsDerivedWithTheProgram(t *testing.T) {
	want := func(op *Operator) []int {
		if op.TilePlan() == nil {
			return nil
		}
		depth := make([]int, op.Grid.NDims())
		for _, f := range op.Fields {
			for d := range depth {
				depth[d] = max(depth[d], f.Halo[d])
			}
		}
		return depth
	}
	tiled := make([]*Operator, 2)
	err := mpi.RunRanks(2, func(c *mpi.Comm) error {
		g := grid.MustNew([]int{64, 32}, nil)
		dec, err := grid.NewDecomposition(g, c.Size(), []int{2, 1})
		if err != nil {
			return err
		}
		ctx, err := NewContext(c, dec, halo.ModeDiagonal)
		if err != nil {
			return err
		}
		fc := &field.Config{Decomp: dec, Rank: c.Rank()}
		m, err := field.NewFunction("m", g, 2, fc)
		if err != nil {
			return err
		}
		build := func(name string, k int) (*Operator, error) {
			u, err := field.NewTimeFunction(name, g, 2, 1, fc)
			if err != nil {
				return nil, err
			}
			upd := symbolic.NewAdd(symbolic.At(u.Ref),
				symbolic.NewMul(symbolic.Float(0.1), symbolic.At(m.Ref), symbolic.Laplace(symbolic.At(u.Ref), 2, 2)))
			return NewOperator([]symbolic.Eq{{LHS: symbolic.ForwardStencil(u.Ref), RHS: upd}},
				map[string]*field.Function{name: &u.Function, "m": m}, g, ctx, &Options{TimeTile: k})
		}
		op, err := build("u", 4)
		if err != nil {
			return err
		}
		tiled[c.Rank()] = op
		if op.TimeTile() != 4 {
			return fmt.Errorf("effective interval %d, want 4", op.TimeTile())
		}
		before := op.InjectDepth()
		if before == nil || !slices.Equal(before, want(op)) {
			t.Errorf("rank %d: k=4 InjectDepth = %v, want %v", c.Rank(), before, want(op))
		}
		classic, err := build("v", 1)
		if err != nil {
			return err
		}
		if d := classic.InjectDepth(); d != nil {
			t.Errorf("rank %d: k=1 InjectDepth = %v, want nil", c.Rank(), d)
		}
		before = slices.Clone(before)
		if _, err := build("w", 8); err != nil {
			return err
		}
		if err := op.Apply(&ApplyOpts{TimeM: 0, TimeN: 0, Syms: map[string]float64{"dt": 1}}); err != nil {
			return err
		}
		if slices.Equal(op.InjectDepth(), before) {
			return fmt.Errorf("the k=8 sibling left the ghost widths at %v: the test needs them grown", before)
		}
		if !slices.Equal(op.InjectDepth(), want(op)) {
			t.Errorf("rank %d: InjectDepth after a sibling's growth = %v, want %v", c.Rank(), op.InjectDepth(), want(op))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Measured once every rank has returned: AllocsPerRun counts the
	// whole process's allocations.
	if n := testing.AllocsPerRun(100, func() { _ = tiled[0].InjectDepth() }); n != 0 {
		t.Errorf("InjectDepth allocates %v objects per call, want 0", n)
	}
}
