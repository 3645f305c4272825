// Package native is devigo's third execution engine: specialized Go
// bulk-row kernels that execute whole opcode *runs* per row instead of
// dispatching the register VM once per instruction.
//
// The engine reuses the bytecode compiler wholesale — symbolic lowering,
// load caching, madd fusion, scalar-pool hoisting — and then re-lowers the
// compiled row program through bytecode.ExtractSegments into fused
// accumulation chains of links, each an operation × operands × destination
// (see bytecode.Link). Each chain executes over fixed-width strips of the
// row (256 points), its accumulator and scratch values held in two
// per-worker strips that the executor treats as ordinary float64 row
// operands. Every link dispatches one strip primitive, selected from its
// operation and its operands' memory kinds — AVX assembly on amd64 (on a
// host that has it: CPUID and XGETBV are probed once), an equivalent
// pure-Go loop elsewhere — with field operands read through unsafe
// pointers patched once per row (one bounds check per field buffer per row
// instead of per point). One primitive takes more than a link: a run of
// taps — consecutive links that each add one product f·s, or f·(g·s[·s2])
// built in the scratch strip, to the accumulator, which is what a stencil
// is made of — executes as a single pTaps dispatch that carries the sum
// through registers, in link order, instead of storing and reloading the
// accumulator strip once per tap. The primitives widen float32 lanes to
// float64 exactly as the VM's load opcode does and round after every
// multiply and after every add (multiply and add are emitted as separate
// correctly-rounded IEEE instructions, never FMA) — so the engine is
// bit-exact with the bytecode VM and the interpreter by construction, NaN
// payloads and signed zeros included. The assembly takes the n&^3 body of
// a row; the same links run the n&3 remainder through the pure-Go
// primitives, so any row width runs and the portable path is exercised on
// every platform. Program regions that do not lower to chains fall back to
// per-instruction row sweeps identical to the VM's.
//
// The speedup comes from four removals: the full-row intermediate
// traffic (the VM materializes every instruction's result as a whole
// register row; chain values stream through a cache-resident strip
// accumulator instead), the per-instruction row passes (one fused pass
// per chain), the per-instruction slice bounds checks (hoisted to
// row-patch time), and the accumulator traffic of a stencil's taps (one
// load and one store of the strip per run of taps, not per tap), plus
// 4-lane SIMD arithmetic inside each primitive.
package native

import (
	"devigo/internal/bytecode"
	"devigo/internal/field"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

// Kernel is a compiled loop nest lowered to fused segment programs. It
// wraps the bytecode kernel it was derived from (sharing its program,
// scalar pool and field binding) and satisfies the same execution
// contract (runtime.ExecKernel).
type Kernel struct {
	bk   *bytecode.Kernel
	segs []segment
	tm   *tmpl
	// fsGroup and groupSlot partition the template's field operands by the
	// buffer they read (see groupLoads); immutable, shared by Rebind copies.
	fsGroup   []int32
	groupSlot []int32
	// fusedInstrs is the per-point link count after fusion: one per chain
	// link plus one per fallback VM instruction.
	fusedInstrs int
	// drv is the kernel's private tile driver over the bytecode kernel's
	// binding (per-worker scratch and cached execs live in it). Allocated
	// at Wrap time and replaced on Rebind, never shared between kernel
	// copies.
	drv *runtime.Driver[scratch]
}

// segment is one executable region: either a fused link chain or a VM
// fallback instruction list, in program order.
type segment struct {
	shape bytecode.Shape
	// Link range within the kernel's flat link array (chain shapes).
	lkLo, lkHi int
	vm         []bytecode.Instr
}

// CompileNest compiles one optimized loop nest for the native engine: the
// bytecode compiler produces the row program, and the segment extraction
// re-lowers it into fused chains.
func CompileNest(assigns []symbolic.Assignment, eqs []symbolic.Eq, radius []int,
	fields map[string]*field.Function) (*Kernel, error) {
	bk, err := bytecode.CompileNest(assigns, eqs, radius, fields)
	if err != nil {
		return nil, err
	}
	return Wrap(bk), nil
}

// Wrap lowers an already-compiled bytecode kernel into a native kernel.
// The receiver shares the bytecode kernel's immutable tables; Run never
// mutates them.
func Wrap(bk *bytecode.Kernel) *Kernel {
	k := &Kernel{bk: bk, drv: runtime.NewDriver[scratch](bk.Binding())}
	k.buildTemplate(bk.Segments())
	return k
}

// Bytecode returns the underlying bytecode kernel (introspection for
// tests, the compilation report and the docs' lowering traces).
func (k *Kernel) Bytecode() *bytecode.Kernel { return k.bk }

// Segments re-derives the kernel's fused-segment partition.
func (k *Kernel) Segments() []bytecode.Segment { return k.bk.Segments() }

// BindSyms delegates to the bytecode kernel: the scalar pool layout and
// the bind-time prelude are shared between the two engines.
func (k *Kernel) BindSyms(vals map[string]float64) ([]float64, error) {
	return k.bk.BindSyms(vals)
}

// FlopsPerPoint reports the per-point flop cost, counted identically to
// the other engines (fusion changes dispatch, not arithmetic).
func (k *Kernel) FlopsPerPoint() int { return k.bk.FlopsPerPoint() }

// StencilRadius returns the per-dimension stencil radius.
func (k *Kernel) StencilRadius() []int { return k.bk.StencilRadius() }

// InstrsPerPoint reports the number of links per grid point: one per chain
// link plus one per fallback VM instruction. It is lower than the bytecode
// kernel's count (loads are absorbed into chain operands), which is how
// the autotuner's cost model ranks the engine. It is a property of the
// segment partition, not of the executor: a run of taps the executor
// dispatches as one primitive still counts one per link.
func (k *Kernel) InstrsPerPoint() int { return k.fusedInstrs }

// Rebind returns a copy of the kernel executing against different storage,
// resolved by field name. The fused segments, link templates, program and
// scalar pool are shared with the receiver; the copy gets a private
// driver, so it is safe to run concurrently with the original. This is the
// opcache contract: one native compilation is shared across every shot
// with the same schedule key.
func (k *Kernel) Rebind(fields map[string]*field.Function) (runtime.ExecKernel, error) {
	rb, err := k.bk.Rebind(fields)
	if err != nil {
		return nil, err
	}
	nk := *k
	nk.bk = rb.(*bytecode.Kernel) // a bytecode kernel rebinds to a bytecode kernel
	nk.drv = runtime.NewDriver[scratch](nk.bk.Binding())
	return &nk, nil
}
