package propagators

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"devigo/internal/bytecode"
	"devigo/internal/core"
	"devigo/internal/field"
	"devigo/internal/grid"
	"devigo/internal/halo"
	"devigo/internal/native"
	"devigo/internal/symbolic"
)

// The differential suite is the execution engines' acceptance gate: for
// every propagator, every engine must produce *bit-identical* wavefields
// to the bytecode register VM — serially and on every rank of a
// distributed run under each halo-exchange mode and exchange interval.
// Equality is exact (==), not tolerance-based: all engines are required
// to emit the same float64 operation sequence per point. The interpreter
// is the reference implementation; the native engine is the fused
// bulk-row re-lowering of the bytecode program.

// altEngines are the engines checked pointwise against the bytecode
// baseline.
var altEngines = []string{core.EngineInterpreter, core.EngineNative}

// runEngineSerial executes nt steps of a freshly built model with the
// given engine and returns the model (for field inspection) and result.
func runEngineSerial(t *testing.T, name, engine string, shape []int, so, nt int) (*Model, *RunResult) {
	t.Helper()
	m, err := Build(name, serialCfg(shape, so))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, nil, RunConfig{NT: nt, NReceivers: 4, Exec: Exec{Engine: engine}})
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// compareModels asserts bitwise equality of every buffer of every field.
func compareModels(t *testing.T, label, engine string, a, b *Model) {
	t.Helper()
	for name, fa := range a.Fields {
		fb := b.Fields[name]
		for bi := range fa.Bufs {
			da, db := fa.Bufs[bi].Data, fb.Bufs[bi].Data
			for i := range da {
				if da[i] != db[i] && (da[i] == da[i] || db[i] == db[i]) { // NaN==NaN passes
					t.Fatalf("%s: field %s buf %d diverges at %d: bytecode=%v %s=%v",
						label, name, bi, i, da[i], engine, db[i])
				}
			}
		}
	}
}

func TestEngineDifferential_SerialAllModels(t *testing.T) {
	shape := []int{24, 24}
	for _, name := range ModelNames() {
		t.Run(name, func(t *testing.T) {
			mB, resB := runEngineSerial(t, name, core.EngineBytecode, shape, 4, 30)
			if resB.Perf.Engine != core.EngineBytecode {
				t.Fatalf("engine label wrong: %q", resB.Perf.Engine)
			}
			for _, engine := range altEngines {
				mX, resX := runEngineSerial(t, name, engine, shape, 4, 30)
				if resX.Perf.Engine != engine {
					t.Fatalf("engine label wrong: %q (wanted %q)", resX.Perf.Engine, engine)
				}
				if resB.Norm != resX.Norm {
					t.Errorf("%s: norms diverge: bytecode %v, %s %v", name, resB.Norm, engine, resX.Norm)
				}
				for it := range resB.Receivers {
					for r := range resB.Receivers[it] {
						if resB.Receivers[it][r] != resX.Receivers[it][r] {
							t.Fatalf("%s: trace (%d,%d) diverges vs %s", name, it, r, engine)
						}
					}
				}
				compareModels(t, name, engine, mB, mX)
			}
		})
	}
}

func TestEngineDifferential_Serial3D(t *testing.T) {
	if testing.Short() {
		t.Skip("3-D differential skipped in -short")
	}
	for _, name := range []string{"acoustic", "elastic", "tti"} {
		t.Run(name, func(t *testing.T) {
			mB, resB := runEngineSerial(t, name, core.EngineBytecode, []int{14, 14, 14}, 4, 10)
			for _, engine := range altEngines {
				mX, resX := runEngineSerial(t, name, engine, []int{14, 14, 14}, 4, 10)
				if resB.Norm != resX.Norm {
					t.Errorf("%s 3-D: norms diverge: bytecode %v, %s %v", name, resB.Norm, engine, resX.Norm)
				}
				compareModels(t, name, engine, mB, mX)
			}
		})
	}
}

// runEngineDMP runs a model over a 2x2 decomposition with halo-exchange
// interval k and returns the rank-0 norm and receiver traces.
func runEngineDMP(t *testing.T, name, engine string, shape []int, mode halo.Mode, so, nt, k int) (float64, [][]float64) {
	t.Helper()
	res := rank0(t, name, shape, []int{2, 2}, mode, so, RunConfig{NT: nt, NReceivers: 4, Exec: Exec{Engine: engine,
		Workers: 2, TileRows: 3, TimeTile: k}})
	return res.Norm, res.Receivers
}

func TestEngineDifferential_DMPAllModelsAllModes(t *testing.T) {
	shape := []int{24, 24}
	so, nt := 4, 20
	for _, name := range ModelNames() {
		for _, mode := range []halo.Mode{halo.ModeBasic, halo.ModeDiagonal, halo.ModeFull} {
			for _, k := range []int{1, 4} {
				// The interpreter's k coverage rides on k=1; the native
				// engine is checked at both exchange intervals.
				engines := []string{core.EngineNative}
				if k == 1 {
					engines = altEngines
				}
				t.Run(name+"/"+mode.String()+"/k"+string(rune('0'+k)), func(t *testing.T) {
					normB, tracesB := runEngineDMP(t, name, core.EngineBytecode, shape, mode, so, nt, k)
					for _, engine := range engines {
						normX, tracesX := runEngineDMP(t, name, engine, shape, mode, so, nt, k)
						if normB != normX {
							t.Errorf("%s/%s/k=%d: 4-rank norms diverge: bytecode %v, %s %v",
								name, mode, k, normB, engine, normX)
						}
						for it := range tracesB {
							for r := range tracesB[it] {
								if tracesB[it][r] != tracesX[it][r] {
									t.Fatalf("%s/%s/k=%d: trace (%d,%d) diverges: %v vs %s %v",
										name, mode, k, it, r, tracesB[it][r], engine, tracesX[it][r])
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestEngineDifferential_BytecodeFaster is a coarse perf regression guard
// (the measured figure is bench/'s bytecode.kernel_ns_per_point): on the
// acoustic kernel the register VM must not be slower than the tree-walking
// interpreter.
func TestEngineDifferential_BytecodeFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("perf guard skipped in -short")
	}
	shape := []int{96, 96}
	_, resB := runEngineSerial(t, "acoustic", core.EngineBytecode, shape, 8, 40)
	_, resI := runEngineSerial(t, "acoustic", core.EngineInterpreter, shape, 8, 40)
	gB, gI := resB.Perf.GPtss(), resI.Perf.GPtss()
	if gB <= 0 || gI <= 0 {
		t.Fatalf("throughputs missing: bytecode %v, interpreter %v", gB, gI)
	}
	if gB < gI {
		t.Errorf("bytecode engine slower than interpreter: %.3f vs %.3f GPts/s", gB, gI)
	}
	t.Logf("acoustic 96x96 so-8: bytecode %.3f GPts/s, interpreter %.3f GPts/s (%.2fx)",
		gB, gI, gB/gI)
}

// TestEngineDifferential_NativeFaster guards the native engine's reason to
// exist: fused bulk-row chains must beat the per-instruction register VM
// on the acoustic kernel (the measured ratio is bench/'s
// bytecode. over native.kernel_ns_per_point).
func TestEngineDifferential_NativeFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("perf guard skipped in -short")
	}
	shape := []int{96, 96}
	_, resB := runEngineSerial(t, "acoustic", core.EngineBytecode, shape, 8, 40)
	_, resN := runEngineSerial(t, "acoustic", core.EngineNative, shape, 8, 40)
	gB, gN := resB.Perf.GPtss(), resN.Perf.GPtss()
	if gB <= 0 || gN <= 0 {
		t.Fatalf("throughputs missing: bytecode %v, native %v", gB, gN)
	}
	if gN < gB {
		t.Errorf("native engine slower than bytecode: %.3f vs %.3f GPts/s", gN, gB)
	}
	t.Logf("acoustic 96x96 so-8: native %.3f GPts/s, bytecode %.3f GPts/s (%.2fx)",
		gN, gB, gN/gB)
}

// TestNativeInstrsPerPointPinned pins the native engine's fused dispatch
// count — one per link of each kernel's run, summed over an operator's
// kernels — for every propagator in 2-D at space orders 8 and 16 and in
// 3-D at 4, 8 and 16. The count is the segment partition's fingerprint
// (the autotuner's cost model and the construct-cold benchmark golden read
// it), so a change to the chain extraction that fuses more, less or
// differently shows up here. The flop accounting must not move with it:
// the native engine reuses the bytecode compiler, so a flops/point that
// differs from bytecode's means a lost or double-counted instruction.
func TestNativeInstrsPerPointPinned(t *testing.T) {
	type config struct {
		dims, so int
	}
	want := map[string]map[config]int{
		"acoustic":     {{2, 8}: 32, {2, 16}: 48, {3, 4}: 29, {3, 8}: 41, {3, 16}: 65},
		"elastic":      {{2, 8}: 265, {2, 16}: 505, {3, 4}: 297, {3, 8}: 549, {3, 16}: 1053},
		"tti":          {{2, 8}: 370, {2, 16}: 674, {3, 4}: 340, {3, 8}: 568, {3, 16}: 1024},
		"viscoelastic": {{2, 8}: 475, {2, 16}: 907, {3, 4}: 597, {3, 8}: 1113, {3, 16}: 2145},
	}
	shapes := map[int][]int{2: {40, 44}, 3: {20, 22, 24}}
	for _, name := range ModelNames() {
		for c, wantInstrs := range want[name] {
			m, err := Build(name, serialCfg(shapes[c.dims], c.so))
			if err != nil {
				t.Fatal(err)
			}
			op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil,
				&core.Options{Name: name, Engine: core.EngineNative})
			if err != nil {
				t.Fatal(err)
			}
			opB, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil,
				&core.Options{Name: name, Engine: core.EngineBytecode})
			if err != nil {
				t.Fatal(err)
			}
			got, flops, flopsB := 0, 0, 0
			for _, k := range op.Kernels() {
				got += k.InstrsPerPoint()
				flops += k.FlopsPerPoint()
			}
			for _, k := range opB.Kernels() {
				flopsB += k.FlopsPerPoint()
			}
			if got != wantInstrs {
				t.Errorf("%s %d-D so-%d: native instrs/point = %d, want %d", name, c.dims, c.so, got, wantInstrs)
			}
			if flops <= 0 || flops != flopsB {
				t.Errorf("%s %d-D so-%d: native flops/point = %d, bytecode %d: want equal and > 0", name, c.dims, c.so, flops, flopsB)
			}
		}
	}
}

// TestPropagatorKernelsAreRuns walks every kernel the repo's real programs
// compile to — the four propagators at space orders 4, 8 and 16 in 2-D and
// 3-D, the acoustic adjoint and the imaging condition — and checks that
// each lowers without error to exactly one run: every link of every
// segment, in order, under the handler of its own form. It also sends
// equations that alias a stored buffer at a nonzero offset, which the
// native engine refuses as one kernel, through core.NewOperator: ir splits
// them into two kernels, each one run. It logs the forms these programs
// emit; all of them are bytecode.LinkForms entries, each of which has a
// handler (native's TestHandlersMatchGoTwin).
func TestPropagatorKernelsAreRuns(t *testing.T) {
	known := map[string]bool{}
	for _, f := range bytecode.LinkForms() {
		known[f] = true
	}
	emitted := map[string]bool{}
	check := func(label string, op *core.Operator) {
		for ki, ek := range op.Kernels() {
			k, ok := ek.(*native.Kernel)
			if !ok {
				t.Fatalf("%s kernel %d is a %T, want the native engine's", label, ki, ek)
			}
			segs, err := k.Bytecode().Segments()
			if err != nil {
				t.Fatalf("%s kernel %d: %v", label, ki, err)
			}
			var want []string
			for _, seg := range segs {
				for _, l := range seg.Links {
					if !known[l.String()] {
						t.Errorf("%s kernel %d emits %s, which bytecode.LinkForms does not list", label, ki, l)
					}
					emitted[l.String()] = true
					want = append(want, l.String())
				}
			}
			got := k.RunForms()
			if len(got) != len(want) {
				t.Fatalf("%s kernel %d runs %d links, want the %d of its segments in one run", label, ki, len(got), len(want))
			}
			for j, form := range want {
				if h := got[j]; h != form && !strings.HasPrefix(h, form+"^") {
					t.Errorf("%s kernel %d: link %s runs under handler %s", label, ki, form, h)
				}
			}
		}
	}
	opts := func(name string) *core.Options { return &core.Options{Name: name, Engine: core.EngineNative} }
	for _, name := range ModelNames() {
		for _, so := range []int{4, 8, 16} {
			for _, shape := range [][]int{{40, 44}, {20, 22, 24}} {
				m, err := Build(name, serialCfg(shape, so))
				if err != nil {
					t.Fatal(err)
				}
				op, err := core.NewOperator(m.Eqs, m.Fields, m.Grid, nil, opts(name))
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s so-%d %d-D", name, so, len(shape)), op)
			}
		}
	}
	fwd, err := Build("acoustic", serialCfg([]int{40, 44}, 8))
	if err != nil {
		t.Fatal(err)
	}
	adj, err := Adjoint(fwd)
	if err != nil {
		t.Fatal(err)
	}
	adjOp, err := core.NewOperator(adj.Eqs, adj.Fields, adj.Grid, nil, opts("adjoint"))
	if err != nil {
		t.Fatal(err)
	}
	check("acoustic adjoint", adjOp)
	_, imgOp, err := imagingOperator(fwd, adj, nil, &GradientConfig{Exec: Exec{Engine: core.EngineNative}})
	if err != nil {
		t.Fatal(err)
	}
	check("imaging", imgOp)

	// native's store-alias-vm conformance scenario: the second equation
	// reads the first one's output one point to the left.
	g := grid.MustNew([]int{6, 18}, nil)
	fields := map[string]*field.Function{}
	var refs []*symbolic.FuncRef
	for _, name := range []string{"u", "v"} {
		f, err := field.NewTimeFunction(name, g, 2, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		fields[name] = &f.Function
		refs = append(refs, f.Ref)
	}
	alias, err := core.NewOperator([]symbolic.Eq{
		{LHS: symbolic.ForwardStencil(refs[0]), RHS: symbolic.NewAdd(symbolic.At(refs[0]), symbolic.S("dt"))},
		{LHS: symbolic.ForwardStencil(refs[1]), RHS: symbolic.NewMul(symbolic.Shifted(refs[0], 1, 0, -1), symbolic.Int(2))},
	}, fields, g, nil, opts("store-alias"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(alias.Kernels()); n != 2 {
		t.Fatalf("the aliasing equations compile to %d kernels, want 2", n)
	}
	check("store-alias", alias)

	var forms []string
	for f := range emitted {
		forms = append(forms, f)
	}
	sort.Strings(forms)
	t.Logf("%d of %d link forms emitted by the real programs: %s", len(forms), len(known), strings.Join(forms, " "))
}
