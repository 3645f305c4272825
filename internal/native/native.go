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
// operands are read through unsafe pointers patched once per run of rows
// — a tile's rows in 2-D, one plane's in 3-D, and a team of one sweeps
// its box as one tile — with one bounds check per field buffer per run
// instead of per point. A row is then its offset from the run's first row
// in the pitch of the first output's field: the executors add it to every
// field operand and store, so between rows only the operands whose rows
// move by another pitch (a buffer with another halo, a hoisted row) are
// corrected, not every operand. The handlers
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
// The speedup comes from eight removals: the full-row intermediate traffic
// (the VM materializes every instruction's result as a whole register row;
// chain values never leave the registers), the per-instruction row passes
// (one fused pass per run), the per-instruction slice bounds checks
// (hoisted to patch time), the accumulator traffic of a stencil's taps
// (acc stays in registers from the link that opens it to the one that
// drains it), the accumulator traffic of every other link (the openers and
// closers around the taps work on the same registers), the
// segment-at-a-time passes (a chain's divide or store retires under the
// next segment's taps on the same block, and a register row one segment
// drains into is read back by the next while it is still in the store
// buffer), the per-row addressing (row bases, operand addresses and bounds
// checks are derived once per run of rows; each row is one offset, and only
// the operands whose rows move by another pitch are corrected), and the
// time-invariant chains (a segment that reads only parameters no kernel
// writes runs once per Apply, when the operator's hoisted rows fit its
// budget, and the steps read its row back: see Hoist), plus 4-lane SIMD
// arithmetic inside each handler.
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
	// segs is the program's fused-segment partition; immutable.
	segs []bytecode.Segment
	// tms are the executable templates by part: tms[partAll] is the run,
	// every segment's links and the end sentinel; the priming and steady
	// templates exist once Hoist has found invariant segments.
	tms [numParts]*tmpl
	// cur is the template the Run in flight executes.
	cur part
	// hoist is the time-invariant segments' state (see Hoist).
	hoist hoisting
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
	k := &Kernel{bk: bk, segs: segs, drv: runtime.NewDriver[scratch](bk.Binding())}
	k.tms[partAll] = k.template(segs, nil, nil, partAll)
	return k, nil
}

// Bytecode returns the underlying bytecode kernel (introspection for
// tests, the compilation report and the docs' lowering traces).
func (k *Kernel) Bytecode() *bytecode.Kernel { return k.bk }

// Segments returns the kernel's fused-segment partition (shared,
// read-only).
func (k *Kernel) Segments() []bytecode.Segment { return k.segs }

// RunForms reports how the kernel executes a row (introspection for tests
// and the docs' listings): the form of each link of its run, in order,
// which names the handler that executes it.
func (k *Kernel) RunForms() []string {
	var forms []string
	tm := k.tms[partAll]
	for _, f := range tm.forms[:len(tm.forms)-1] {
		forms = append(forms, f.String())
	}
	return forms
}

// BindSyms delegates to the bytecode kernel: the scalar pool layout and
// the bind-time prelude are shared between the two engines.
func (k *Kernel) BindSyms(vals map[string]float64) ([]float64, error) {
	return k.bk.BindSyms(vals)
}

// BindSymsInto is BindSyms into pool's storage (see
// bytecode.Kernel.BindSymsInto).
func (k *Kernel) BindSymsInto(pool []float64, vals map[string]float64) ([]float64, error) {
	return k.bk.BindSymsInto(pool, vals)
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
func (k *Kernel) InstrsPerPoint() int { return len(k.tms[partAll].ops) - 1 }

// template builds the template of the segments p selects (see
// buildTemplate) and groups its field operands by buffer.
func (k *Kernel) template(segs []bytecode.Segment, inv []bool, hoisted []int32, p part) *tmpl {
	tm := buildTemplate(segs, inv, hoisted, p)
	tm.groupLoads(k.bk.Binding().Slots)
	return tm
}
