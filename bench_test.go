package devigo

// The Go benchmarks time real code on this machine: the compiled kernels
// (BenchmarkExec_*), a halo exchange per pattern, an in-process MPI
// ping-pong, operator compilation, symbolic solving, the stencil executor
// and the CIRE pass. The paper's modeled tables execute nothing and are
// pinned byte for byte by TestModeledTablesGolden (internal/perfreport);
// devigo-bench renders them. End-to-end and per-layer timings are the
// repository benchmark's (bench/).
//
// Run: go test -run '^$' -bench . -benchmem

import (
	"testing"

	"devigo/internal/core"
	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/halo"
	"devigo/internal/ir"
	"devigo/internal/mpi"
	"devigo/internal/propagators"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

func benchKernelExec(b *testing.B, model string, shape []int, so, nbl int) {
	m, err := propagators.Build(model, propagators.Config{
		Shape: shape, SpaceOrder: so, NBL: nbl, Velocity: 1.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, &core.Options{Name: model})
	if err != nil {
		b.Fatal(err)
	}
	pts := 1
	for _, s := range shape {
		pts *= s + 2*nbl
	}
	b.SetBytes(int64(pts) * 4)
	b.ResetTimer()
	// One Apply of b.N steps: the steady template a multi-step run
	// executes, its time-invariant chains primed once per Apply.
	if err := op.Apply(&core.ApplyOpts{TimeM: 0, TimeN: b.N - 1, Syms: map[string]float64{"dt": m.CriticalDt}}); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	perf := op.Report()
	b.ReportMetric(perf.GPtss()*1e3, "Mpts/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pts), "ns/point")
}

func BenchmarkExec_Acoustic3D_SO8(b *testing.B) {
	benchKernelExec(b, "acoustic", []int{48, 48, 48}, 8, 0)
}

func BenchmarkExec_Acoustic2D_SO4(b *testing.B) {
	benchKernelExec(b, "acoustic", []int{192, 192}, 4, 0)
}

// The acoustic so-8 kernel on rows as wide as the repository benchmark's
// stepping workloads sweep (bench/workloads.go): survey-8shot's 128,
// strong-2rank / deep-2rank's 256 and stream-2048's 2048. The model's
// Shape includes the absorbing layer, so _Row272 and _Row2064 sweep rows
// of 256 and 2048 points: their names, and the points benchKernelExec
// divides by, count the layer twice.
//
// The gap between _Row272 and _Row2064 is not the rows' footprint alone.
// _Row272's hoisted damping reciprocal (524,288 B) fits the operator's
// 1 MiB budget and is primed once per Apply; _Row2064's does not, so its
// every step runs the reciprocal's chain inline. On a shared 2-vCPU Xeon
// container (AVX-512), with -cpu 1, _Row2064 with the budget unbounded
// gave 2.83–4.24 ns/point against 3.16–4.85 with it (12 alternating runs
// each, best 2.83 against 3.16). A prototype of 512-point
// column blocks in the tile driver made the stream-2048 shape slower on
// the same host, best 3.42 → 3.94 ns/point, so blocking the long rows is
// not the lever the row widths alone suggest.
func BenchmarkExec_Acoustic2D_SO8_Row128(b *testing.B) {
	benchKernelExec(b, "acoustic", []int{128, 128}, 8, 0)
}

func BenchmarkExec_Acoustic2D_SO8_Row272(b *testing.B) {
	benchKernelExec(b, "acoustic", []int{256, 256}, 8, 8)
}

func BenchmarkExec_Acoustic2D_SO8_Row2064(b *testing.B) {
	benchKernelExec(b, "acoustic", []int{256, 2048}, 8, 8)
}

func BenchmarkExec_Elastic2D_SO8(b *testing.B) {
	benchKernelExec(b, "elastic", []int{96, 96}, 8, 0)
}

func BenchmarkExec_TTI2D_SO8(b *testing.B) {
	benchKernelExec(b, "tti", []int{64, 64}, 8, 0)
}

func BenchmarkExec_Viscoelastic2D_SO8(b *testing.B) {
	benchKernelExec(b, "viscoelastic", []int{64, 64}, 8, 0)
}

// barrier holds every rank until all have entered it: an allreduce
// returns on no rank before rank 0 holds every contribution.
func barrier(c *mpi.Comm) { c.AllreduceScalar(0, mpi.OpSum) }

func benchHaloExchange(b *testing.B, mode halo.Mode) {
	g := grid.MustNew([]int{64, 64}, nil)
	w := mpi.NewWorld(4)
	err := w.Run(func(c *mpi.Comm) {
		dec, err := grid.NewDecomposition(g, 4, []int{2, 2})
		if err != nil {
			panic(err)
		}
		cart, err := mpi.CartCreate(c, dec.Topology, nil)
		if err != nil {
			panic(err)
		}
		f, err := field.NewFunction("u", g, 8, &field.Config{Decomp: dec, Rank: c.Rank()})
		if err != nil {
			panic(err)
		}
		ex := halo.NewDepth(mode, cart, f, 0, nil)
		barrier(c)
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			ex.Exchange(0)
		}
		barrier(c)
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkHaloExchange_Basic(b *testing.B)    { benchHaloExchange(b, halo.ModeBasic) }
func BenchmarkHaloExchange_Diagonal(b *testing.B) { benchHaloExchange(b, halo.ModeDiagonal) }
func BenchmarkHaloExchange_Full(b *testing.B)     { benchHaloExchange(b, halo.ModeFull) }

func BenchmarkMPI_PingPong(b *testing.B) {
	w := mpi.NewWorld(2)
	payload := make([]float32, 4096)
	err := w.Run(func(c *mpi.Comm) {
		buf := make([]float32, len(payload))
		if c.Rank() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Send(1, 0, payload)
				c.Recv(1, 1, buf)
			}
		} else {
			for i := 0; i < b.N; i++ {
				c.Recv(0, 0, buf)
				c.Send(0, 1, payload)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)) * 4 * 2)
}

func BenchmarkCompile_AcousticOperator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := propagators.Acoustic(propagators.Config{
			Shape: []int{32, 32, 32}, SpaceOrder: 8, NBL: 0, Velocity: 1.5,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymbolic_SolveAcoustic(b *testing.B) {
	u := &symbolic.FuncRef{Name: "u", NDims: 3, IsTime: true, NumBufs: 3}
	m := &symbolic.FuncRef{Name: "m", NDims: 3}
	for i := 0; i < b.N; i++ {
		pde := symbolic.Sub(
			symbolic.NewMul(symbolic.At(m), symbolic.Dt2(symbolic.At(u), 2)),
			symbolic.Laplace(symbolic.At(u), 3, 8),
		)
		if _, err := symbolic.Solve(symbolic.Eq{LHS: pde, RHS: symbolic.Int(0)}, symbolic.ForwardStencil(u)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuntime_StencilVM(b *testing.B) {
	// Raw executor throughput on the 2-D SDO-8 diffusion kernel.
	g := grid.MustNew([]int{256, 256}, nil)
	u, err := field.NewTimeFunction("u", g, 8, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	eq := symbolic.Eq{LHS: symbolic.Dt(symbolic.At(u.Ref), 1), RHS: symbolic.Laplace(symbolic.At(u.Ref), 2, 8)}
	sol, err := symbolic.Solve(eq, symbolic.ForwardStencil(u.Ref))
	if err != nil {
		b.Fatal(err)
	}
	op, err := core.NewOperator([]symbolic.Eq{{LHS: symbolic.ForwardStencil(u.Ref), RHS: sol}},
		map[string]*field.Function{"u": &u.Function}, g, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(256 * 256 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op.Apply(&core.ApplyOpts{TimeM: i, TimeN: i, Syms: map[string]float64{"dt": 1e-4}}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(op.Report().GPtss()*1e3, "Mpts/s")
	_ = runtime.Box{}
}

// BenchmarkAblation_CIRE measures the design choice docs/ARCHITECTURE.md
// describes under "Stage 3 — IET": the CIRE flop-reduction pass on the
// rotated TTI Laplacian. It reports naive
// vs optimized per-point flop counts and times real kernel execution with
// the pass enabled (the compiler always applies it; the naive count comes
// from the un-reduced lowering).
func BenchmarkAblation_CIRE(b *testing.B) {
	m, err := propagators.TTI(propagators.Config{
		Shape: []int{48, 48}, SpaceOrder: 8, NBL: 0, Velocity: 1.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	clusters, err := ir.Lower(m.Eqs, 2)
	if err != nil {
		b.Fatal(err)
	}
	naive := 0
	for _, c := range clusters {
		naive += c.FlopsPerPoint()
	}
	op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, &core.Options{Name: "tti"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op.Apply(&core.ApplyOpts{TimeM: i, TimeN: i, Syms: map[string]float64{"dt": m.CriticalDt}}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(naive), "naive-flops/pt")
	b.ReportMetric(float64(op.FlopsPerPointOptimized()), "cire-flops/pt")
	b.ReportMetric(float64(naive)/float64(op.FlopsPerPointOptimized()), "reduction-x")
}
