// Package native is devigo's production execution engine: the compiled row
// program re-lowered into one *run* of fused links that executes a row block
// by block in registers, instead of dispatching the register VM once per
// instruction over the whole row.
//
// The engine reuses the bytecode compiler wholesale — symbolic lowering,
// load caching, madd fusion, scalar-pool hoisting — and then re-lowers the
// compiled row program through bytecode.ExtractSegments into fused
// accumulation chains of links, each an operation × operands × destination
// (see bytecode.Link). Every instruction of the program lowers to a link,
// so a kernel's chain segments form exactly one run, and the run executes
// block-major: every link of every segment on one block of 16 points, then
// the next block (then blocks of 4 points, then the n&3 remainder). Within
// a block the chain's accumulator and scratch value, acc and t, are two
// groups of four YMM registers; every link form has one
// handler that does the link's arithmetic in place in its destination's
// registers and jumps to the next link's handler, so a run is one call per
// row and one threaded dispatch per link per block, and nothing a chain
// computes touches memory before a torow or store link writes it. Field
// operands are read through unsafe pointers patched once per row (one
// bounds check per field buffer per row instead of per point). The handlers
// are AVX assembly on amd64 (on a host that has it: CPUID and XGETBV are
// probed once), generated from the form list; the same op table runs
// through an equivalent pure-Go executor elsewhere. Both widen float32
// lanes to float64 exactly as the VM's load opcode does and round after
// every multiply and after every add (multiply and add are emitted as
// separate correctly-rounded IEEE instructions, never FMA) — so the engine
// is bit-exact with the bytecode VM and the interpreter by construction,
// NaN payloads and signed zeros included. The assembly takes the n&^3 body
// of a row; the same ops run the n&3 remainder through the pure-Go
// executor, so any row width runs and the portable path is exercised on
// every platform. A program whose loads cannot be deferred into a run
// point by point is refused with an error at Wrap, not run another way.
//
// The speedup comes from six removals: the full-row intermediate traffic
// (the VM materializes every instruction's result as a whole register row;
// chain values never leave the registers), the per-instruction row passes
// (one fused pass per run), the per-instruction slice bounds checks
// (hoisted to row-patch time), the accumulator traffic of a stencil's taps
// (acc stays in registers from the link that opens it to the one that
// drains it), the accumulator traffic of every other link (the openers and
// closers around the taps work on the same registers), and the
// segment-at-a-time passes (a chain's divide or store retires under the
// next segment's taps on the same block, and a register row one segment
// drains into is read back by the next while it is still in the store
// buffer), plus 4-lane SIMD arithmetic inside each handler.
package native

import (
	"fmt"

	"devigo/internal/bytecode"
	"devigo/internal/field"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

// Kernel is a compiled loop nest lowered to one run of fused links. It
// wraps the bytecode kernel it was derived from (sharing its program,
// scalar pool and field binding) and satisfies the same execution
// contract (runtime.ExecKernel).
type Kernel struct {
	bk *bytecode.Kernel
	// tm is the executable template: the run's links and its end sentinel.
	tm *tmpl
	// fsGroup and groupSlot partition the template's field operands by the
	// buffer they read (see groupLoads); immutable.
	fsGroup   []int32
	groupSlot []int32
	// drv is the kernel's private tile driver over the bytecode kernel's
	// binding (per-worker scratch and cached execs live in it), allocated
	// at Wrap time.
	drv *runtime.Driver[scratch]
}

// CompileKeyed compiles one optimized loop nest for the native engine: the
// bytecode compiler produces the row program from the nest's keyed body
// (see bytecode.CompileKeyed), and the segment extraction re-lowers it
// into fused chains (see Wrap for the error).
func CompileKeyed(assigns []symbolic.Assignment, eqs []symbolic.Eq, kn symbolic.KeyedNest,
	radius []int, fields map[string]*field.Function) (*Kernel, error) {
	bk, err := bytecode.CompileKeyed(assigns, eqs, kn, radius, fields)
	if err != nil {
		return nil, err
	}
	return Wrap(bk)
}

// Wrap lowers an already-compiled bytecode kernel into a native kernel.
// The receiver shares the bytecode kernel's immutable tables; Run never
// mutates them. The error, which names the equation and the slot, is a
// program whose loads cannot be deferred into a run (see
// bytecode.ExtractSegments); the bytecode kernel still runs such a program.
func Wrap(bk *bytecode.Kernel) (*Kernel, error) {
	segs, err := bk.Segments()
	if err != nil {
		return nil, fmt.Errorf("native: cannot lower the kernel to one run: %w", err)
	}
	k := &Kernel{bk: bk, tm: buildTemplate(segs), drv: runtime.NewDriver[scratch](bk.Binding())}
	k.groupLoads()
	return k, nil
}

// Bytecode returns the underlying bytecode kernel (introspection for
// tests, the compilation report and the docs' lowering traces).
func (k *Kernel) Bytecode() *bytecode.Kernel { return k.bk }

// Segments re-derives the kernel's fused-segment partition, which Wrap
// has already lowered without error.
func (k *Kernel) Segments() []bytecode.Segment {
	segs, _ := k.bk.Segments()
	return segs
}

// RunForms reports how the kernel executes a row (introspection for tests
// and the docs' listings): the form of each link of its run, in order,
// which names the handler that executes it.
func (k *Kernel) RunForms() []string {
	var forms []string
	for _, f := range k.tm.forms[:len(k.tm.forms)-1] {
		forms = append(forms, f.String())
	}
	return forms
}

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

// InstrsPerPoint reports the number of links per grid point: the run's
// length without its end sentinel. It is lower than the bytecode kernel's
// count (loads are absorbed into chain operands), which is how the
// autotuner's cost model ranks the engine.
func (k *Kernel) InstrsPerPoint() int { return len(k.tm.ops) - 1 }
