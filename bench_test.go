package devigo

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (docs/BENCHMARKS.md, "What devigo-bench still does", indexes
// the experiments):
//
//   - BenchmarkFig07_Roofline                  -> paper Fig. 7
//   - BenchmarkFig08_AcousticStrongCPU         -> Fig. 8a / Table IV
//   - BenchmarkFig08b_AcousticStrongGPU        -> Fig. 8b / Table XX
//   - BenchmarkFig09_ElasticStrongCPU          -> Fig. 9a / Table VIII
//   - BenchmarkFig09b_ElasticStrongGPU         -> Fig. 9b / Table XXIV
//   - BenchmarkFig10_TTIStrongCPU              -> Fig. 10a / Table XII
//   - BenchmarkFig10b_TTIStrongGPU             -> Fig. 10b / Table XXVIII
//   - BenchmarkFig11_ViscoelasticStrongCPU     -> Fig. 11a / Table XVI
//   - BenchmarkFig11b_ViscoelasticStrongGPU    -> Fig. 11b / Table XXXII
//   - BenchmarkFig12_WeakScaling               -> Fig. 12
//   - BenchmarkTables_CPUSDOSweep              -> Figs. 13-16 / Tables III-XVIII
//   - BenchmarkTables_GPUSDOSweep              -> Figs. 17-20 / Tables XIX-XXXIV
//   - BenchmarkFigs21to24_WeakSDOSweep         -> Figs. 21-24
//   - BenchmarkAblation_ModeSelection          -> future-work auto-tuner
//
// Modeled numbers carry b.ReportMetric units (GPts/s at 1 and 128 nodes,
// efficiency); the Benchmark*Exec benches additionally measure the *real*
// executor and in-process MPI runtime on this machine.
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"sync"
	"testing"

	"devigo/internal/core"
	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/halo"
	"devigo/internal/ir"
	"devigo/internal/mpi"
	"devigo/internal/perfmodel"
	"devigo/internal/perfreport"
	"devigo/internal/propagators"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

var (
	charMu    sync.Mutex
	charCache = map[string]perfmodel.KernelChar{}
)

func benchChar(b *testing.B, model string, so int) perfmodel.KernelChar {
	b.Helper()
	charMu.Lock()
	defer charMu.Unlock()
	key := fmt.Sprintf("%s/%d", model, so)
	if kc, ok := charCache[key]; ok {
		return kc
	}
	kc, err := perfreport.Characterize(model, so)
	if err != nil {
		b.Fatal(err)
	}
	charCache[key] = kc
	return kc
}

// benchStrong regenerates one strong-scaling table and reports the paper's
// headline numbers as metrics.
func benchStrong(b *testing.B, model string, so int, machine perfmodel.Machine) {
	b.Helper()
	benchChar(b, model, so) // warm the characterization cache outside timing
	var tbl *perfreport.ScalingTable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = perfreport.StrongScaling(model, so, machine)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	best := tbl.ModeOrder[0]
	row := tbl.Rows[best]
	b.ReportMetric(row[0], "GPts/s@1")
	b.ReportMetric(row[len(row)-1], "GPts/s@128")
	b.ReportMetric(tbl.EffPct[len(tbl.EffPct)-1], "eff%@128")
}

func BenchmarkFig07_Roofline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := perfreport.RooflineReport(8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig08_AcousticStrongCPU(b *testing.B) {
	benchStrong(b, "acoustic", 8, perfmodel.Archer2Node())
}

func BenchmarkFig08b_AcousticStrongGPU(b *testing.B) {
	benchStrong(b, "acoustic", 8, perfmodel.TursaA100())
}

func BenchmarkFig09_ElasticStrongCPU(b *testing.B) {
	benchStrong(b, "elastic", 8, perfmodel.Archer2Node())
}

func BenchmarkFig09b_ElasticStrongGPU(b *testing.B) {
	benchStrong(b, "elastic", 8, perfmodel.TursaA100())
}

func BenchmarkFig10_TTIStrongCPU(b *testing.B) {
	benchStrong(b, "tti", 8, perfmodel.Archer2Node())
}

func BenchmarkFig10b_TTIStrongGPU(b *testing.B) {
	benchStrong(b, "tti", 8, perfmodel.TursaA100())
}

func BenchmarkFig11_ViscoelasticStrongCPU(b *testing.B) {
	benchStrong(b, "viscoelastic", 8, perfmodel.Archer2Node())
}

func BenchmarkFig11b_ViscoelasticStrongGPU(b *testing.B) {
	benchStrong(b, "viscoelastic", 8, perfmodel.TursaA100())
}

func BenchmarkFig12_WeakScaling(b *testing.B) {
	for _, model := range propagators.ModelNames() {
		benchChar(b, model, 8)
	}
	b.ResetTimer()
	var lastCPU, lastGPU float64
	for i := 0; i < b.N; i++ {
		for _, model := range propagators.ModelNames() {
			cpu, err := perfreport.WeakScaling(model, 8, perfmodel.Archer2Node(), halo.ModeBasic)
			if err != nil {
				b.Fatal(err)
			}
			gpu, err := perfreport.WeakScaling(model, 8, perfmodel.TursaA100(), halo.ModeBasic)
			if err != nil {
				b.Fatal(err)
			}
			if model == "acoustic" {
				lastCPU = cpu[len(cpu)-1].Runtime
				lastGPU = gpu[len(gpu)-1].Runtime
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(lastCPU, "s@128cpu")
	b.ReportMetric(lastGPU, "s@128gpu")
	b.ReportMetric(lastCPU/lastGPU, "gpu-speedup")
}

func BenchmarkTables_CPUSDOSweep(b *testing.B) {
	// Tables III-XVIII / Figures 13-16: every model at SDO 4,8,12,16.
	m := perfmodel.Archer2Node()
	for i := 0; i < b.N; i++ {
		for _, model := range propagators.ModelNames() {
			for _, so := range perfreport.PaperSpaceOrders {
				if _, err := perfreport.StrongScaling(model, so, m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkTables_GPUSDOSweep(b *testing.B) {
	// Tables XIX-XXXIV / Figures 17-20.
	m := perfmodel.TursaA100()
	for i := 0; i < b.N; i++ {
		for _, model := range propagators.ModelNames() {
			for _, so := range perfreport.PaperSpaceOrders {
				if _, err := perfreport.StrongScaling(model, so, m); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkFigs21to24_WeakSDOSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, so := range perfreport.PaperSpaceOrders {
			for _, model := range propagators.ModelNames() {
				if _, err := perfreport.WeakScaling(model, so, perfmodel.Archer2Node(), halo.ModeBasic); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkAblation_ModeSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := perfreport.ModeSelectionReport(8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Real-execution benchmarks: the compiled kernels and the in-process
// --- MPI runtime measured on this machine.

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
// strong-2rank / deep-2rank's 256 + 2*8 and stream-2048's 2048 + 2*8.
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

// BenchmarkAblation_TopologyTuning measures the paper's full-mode
// discussion: custom x/y-only decompositions versus the default.
func BenchmarkAblation_TopologyTuning(b *testing.B) {
	kc := benchChar(b, "acoustic", 8)
	m := perfmodel.Archer2Node()
	var auto, tuned float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sAuto := perfmodel.Scenario{Kernel: kc, Machine: m,
			Shape: []int{1024, 1024, 1024}, Nodes: 16, Mode: halo.ModeFull}
		sTuned := sAuto
		sTuned.Topology = []int{16, 8, 1} // split x and y only
		var err error
		auto, err = sAuto.ThroughputGPts()
		if err != nil {
			b.Fatal(err)
		}
		tuned, err = sTuned.ThroughputGPts()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(auto, "GPts/s-auto")
	b.ReportMetric(tuned, "GPts/s-xy-topo")
}
