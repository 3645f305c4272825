package native

import (
	"math"
	goruntime "runtime"
	"sync"
	"testing"

	"devigo/internal/bytecode"
	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

// TestSweepUnderGCStress sweeps a native kernel while another goroutine
// forces garbage-collection cycles back to back, and requires the bits of
// the same sweep without them. The op table holds row addresses as words
// the collector does not trace (see addr), so a cycle that runs between a
// row patch and the links that read it must find every buffer where the
// patch left it. The sweep runs on a team of two, through every executor
// the host has.
func TestSweepUnderGCStress(t *testing.T) {
	execs, restore := confExecutors()
	defer restore()
	for _, avx := range execs {
		hasAVX = avx
		want := gcSweep(t, false)
		got := gcSweep(t, true)
		for bi := range want {
			for i := range want[bi] {
				if w := float64(want[bi][i]); math.IsNaN(w) || math.IsInf(w, 0) {
					t.Fatalf("avx=%v: buffer %d lane %d: the reference sweep diverged (%v)", avx, bi, i, w)
				}
				if math.Float32bits(got[bi][i]) != math.Float32bits(want[bi][i]) {
					t.Fatalf("avx=%v: buffer %d lane %d: %v under GC stress, %v without", avx, bi, i, got[bi][i], want[bi][i])
				}
			}
		}
	}
}

// gcSweep steps a 2-D so-8 wave equation 60 times, with a goroutine
// running runtime.GC in a loop throughout when stress is set, and returns
// the wavefield's buffers.
func gcSweep(t *testing.T, stress bool) [][]float32 {
	t.Helper()
	g := grid.MustNew([]int{48, 53}, nil)
	u, err := field.NewTimeFunction("u", g, 8, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := field.NewFunction("m", g, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for bi := range u.Bufs {
		b := u.Buf(bi)
		for i := range b.Data {
			b.Data[i] = float32((i*13+bi*7)%29)*0.0625 - 0.875
		}
	}
	for i := range m.Buf(0).Data {
		m.Buf(0).Data[i] = 1 + float32(i%5)*0.25
	}
	// The Laplacian is a per-point temporary, so the run drains it into a
	// register row (torow) and reads it back: field rows and register rows
	// both sit in the op table.
	ut := symbolic.At(u.Ref)
	r0 := symbolic.S("r0")
	assigns := []symbolic.Assignment{{Name: "r0", Value: symbolic.Collect(symbolic.ExpandDerivatives(symbolic.Laplace(ut, 2, 8)))}}
	rhs := symbolic.NewAdd(
		symbolic.NewMul(symbolic.Int(2), ut),
		symbolic.Neg(symbolic.Backward(u.Ref)),
		symbolic.NewMul(symbolic.NewPow(symbolic.S("dt"), 2), symbolic.NewPow(symbolic.At(m.Ref), -1), r0),
		symbolic.NewMul(symbolic.Rat(1, 1000), r0, symbolic.At(m.Ref)),
	)
	fields := map[string]*field.Function{"u": &u.Function, "m": m}
	bk, err := bytecode.CompileNest(assigns, []symbolic.Eq{{LHS: symbolic.ForwardStencil(u.Ref), RHS: rhs}}, []int{4, 4}, fields)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Wrap(bk)
	if err != nil {
		t.Fatal(err)
	}
	if tm := k.tms[partAll]; len(tm.fs) == 0 || len(tm.rs) == 0 {
		t.Fatalf("the run reads %d field rows and %d register rows, want both", len(tm.fs), len(tm.rs))
	}
	pool, err := k.BindSyms(map[string]float64{"dt": 0.05, "h_x": 1, "h_y": 1})
	if err != nil {
		t.Fatal(err)
	}
	team := runtime.NewPool(2, 0)
	defer team.Close()
	opts := &runtime.ExecOpts{TileRows: 2, Pool: team}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	if stress {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Between cycles, allocate and scribble on blocks of many
			// sizes, so memory a cycle freed is reused and overwritten
			// while the sweep runs.
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				goruntime.GC()
				for n := 16; n <= 1<<14; n *= 2 {
					junk := make([]byte, n+i%n)
					for j := range junk {
						junk[j] = 0xff
					}
				}
			}
		}()
	}
	for step := 0; step < 60; step++ {
		k.Run(step, confBox(&u.Function), pool, opts)
	}
	close(stop)
	wg.Wait()
	out := make([][]float32, len(u.Bufs))
	for bi := range u.Bufs {
		b := u.Buf(bi)
		out[bi] = append([]float32(nil), b.Data...)
	}
	return out
}
