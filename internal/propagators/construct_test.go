package propagators

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"strings"
	"testing"

	"devigo/internal/core"
	"devigo/internal/native"
)

var updateConstruct = flag.Bool("update-construct", false, "rewrite testdata/construct_hashes.txt from the current compiler")

const constructGolden = "testdata/construct_hashes.txt"

// constructHash digests what construction decides about an operator: the
// schedule, the generated C and, per kernel, the bytecode row program, the
// native run's link forms, the scalar-pool layout and the pool a fixed
// binding derives (which covers the folded constants and the bind-time
// prelude).
func constructHash(t *testing.T, op *core.Operator) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", op.Schedule.String(), op.CCode)
	for _, ek := range op.Kernels() {
		nk, ok := ek.(*native.Kernel)
		if !ok {
			t.Fatalf("%s: kernel is a %T, want *native.Kernel", op.Name, ek)
		}
		bk := nk.Bytecode()
		fmt.Fprintf(h, "%v\x00%v\x00%v\x00%d %d %d\x00", bk.Program(), nk.RunForms(), bk.SymNames,
			bk.NumRegisters(), bk.PoolSize(), bk.FlopsPerPoint())
		syms := map[string]float64{}
		for i, n := range bk.SymNames {
			syms[n] = 0.75 + 0.125*float64(i)
		}
		pool, err := bk.BindSyms(syms)
		if err != nil {
			t.Fatalf("%s: %v", op.Name, err)
		}
		for _, v := range pool {
			fmt.Fprintf(h, "%016x ", math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// renderConstructPin builds every propagator at so {4, 8, 16} in 2-D and
// 3-D, serially, plus the acoustic adjoint and imaging operators, and
// lists each operator's construct hash and its links per point.
func renderConstructPin(t *testing.T) string {
	var b strings.Builder
	line := func(name string, op *core.Operator) {
		instrs := 0
		for _, k := range op.Kernels() {
			instrs += k.InstrsPerPoint()
		}
		fmt.Fprintf(&b, "%s %s %d\n", name, constructHash(t, op), instrs)
		op.Close()
	}
	for _, model := range ModelNames() {
		for _, shape := range [][]int{{24, 24}, {16, 16, 16}} {
			for _, so := range []int{4, 8, 16} {
				m, err := Build(model, Config{Shape: shape, SpaceOrder: so, NBL: 4, Velocity: 1.5})
				if err != nil {
					t.Fatal(err)
				}
				op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, &core.Options{Name: m.Name})
				if err != nil {
					t.Fatal(err)
				}
				line(fmt.Sprintf("%s-%dd-so%d", model, len(shape), so), op)
				if model != "acoustic" || so != 8 {
					continue
				}
				adj, err := Adjoint(m)
				if err != nil {
					t.Fatal(err)
				}
				aop, err := core.NewOperator(adj.Eqs, adj.Fields, adj.Grid, nil, &core.Options{Name: adj.Name})
				if err != nil {
					t.Fatal(err)
				}
				line(fmt.Sprintf("%s-%dd-so%d-adjoint", model, len(shape), so), aop)
				_, iop, err := imagingOperator(m, adj, nil, Exec{}.options("imaging", nil))
				if err != nil {
					t.Fatal(err)
				}
				line(fmt.Sprintf("%s-%dd-so%d-imaging", model, len(shape), so), iop)
			}
		}
	}
	return b.String()
}

// What construction emits is pinned per operator: a change to the
// compiler's internals (how it keys, expands or compiles) must leave every
// schedule, every line of C and every instruction stream as it was. A
// deliberate change regenerates the file with `go test
// ./internal/propagators -run TestConstructOutputPinned -args
// -update-construct` and says which lines moved.
func TestConstructOutputPinned(t *testing.T) {
	got := renderConstructPin(t)
	if *updateConstruct {
		if err := os.WriteFile(constructGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(constructGolden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d lines rendered, %d pinned", constructGolden, len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("%s line %d:\n got %q\nwant %q", constructGolden, i+1, gl[i], wl[i])
		}
	}
}

// TestConstructAllocsPinned bounds the heap allocations of one serial
// Build + NewOperator of the heaviest stencil the propagators build (TTI,
// so-16), by count and by bytes. Construction is not on any stepping
// workload's clock, so a compiler pass that starts allocating per
// derivative node (re-solving FD weights, say) or rendering trees again
// would otherwise only show as a slower construct round. The bounds are
// 1.3x the 15,488 allocations measured once construction keyed each
// right-hand side once and the 1,678,874 bytes measured once field
// storage waited for first use; Build allocating it made 2,442,886
// bytes, keying each right-hand side again in every pass 19,481
// allocations (4,065,072 bytes), rendering a subtree's key per node (and
// per sort comparison) 189,860 allocations, and solving FD weights for
// every derivative node 2.26 M.
func TestConstructAllocsPinned(t *testing.T) {
	const (
		maxAllocs = 20_130
		maxBytes  = 2_183_000
	)
	construct := func() {
		m, err := Build("tti", Config{Shape: []int{64, 64}, SpaceOrder: 16, Velocity: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, &core.Options{Name: m.Name})
		if err != nil {
			t.Fatal(err)
		}
		op.Close()
	}
	// As testing.AllocsPerRun measures: one processor, a warm-up run (the
	// FD weight memo fills), then the mean over the runs.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	construct()
	const runs = 4
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		construct()
	}
	goruntime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("tti so-16 64x64 Build + NewOperator: %d allocations, %d bytes", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("tti so-16 64x64 Build + NewOperator allocates %d times, want <= %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("tti so-16 64x64 Build + NewOperator allocates %d bytes, want <= %d", bytes, maxBytes)
	}
}
