// Package bytecode is the kernel-compilation subsystem of devigo: it
// lowers the per-point expressions of a loop nest (CSE temporaries plus
// update equations) into flat, register-based bytecode executed by a tight
// switch-dispatch virtual machine.
//
// It replaces the per-point expression-tree interpreter of package runtime
// on the hot path. Three properties drive the design:
//
//   - Register bytecode, not a stack machine. Every instruction names its
//     operand registers, so the VM never shuffles a stack and duplicate
//     field reads within one nest are compiled to a single load (the
//     register holding a loaded row is reused until an equation stores to
//     that field).
//
//   - Row-sweep execution. A virtual register holds a whole
//     inner-dimension row, and one instruction dispatch processes the
//     whole row, amortizing the switch over the vector length instead of
//     paying it at every grid point.
//
//   - Bind-time scalar hoisting. Subexpressions built purely from
//     constants and scalar symbols — including the 1/dt-style reciprocals
//     introduced by Pow(sym, -1) nodes — are folded at compile time when
//     fully constant, or evaluated once per Apply into a scalar pool
//     (strength-reducing per-point divisions into multiplications by a
//     precomputed reciprocal).
//
// The generated code is bit-exact with the interpreter: every float64
// operation is emitted in the interpreter's evaluation order, the fused
// multiply-add opcode rounds after the multiply and after the add (it
// fuses *dispatch*, not IEEE rounding), and results are rounded to
// float32 only at the store.
package bytecode

import (
	"fmt"

	"devigo/internal/runtime"
)

// Vector opcodes. Each instruction operates on whole inner-dimension rows:
// rd, a and c address row registers; b addresses the scalar pool, a load
// slot, an equation index, an integer exponent — or the second source
// register in the VV forms.
const (
	OpLoad   byte = iota // rd[i] = float64(row(slots[b])[i])
	OpStore              // row(eqs[b])[i] = float32(reg_a[i])
	OpCopy               // rd[i] = reg_a[i]
	OpMovS               // rd[i] = pool[b] (broadcast)
	OpAddVV              // rd[i] = reg_a[i] + reg_b[i]
	OpAddVS              // rd[i] = reg_a[i] + pool[b]
	OpMulVV              // rd[i] = reg_a[i] * reg_b[i]
	OpMulVS              // rd[i] = reg_a[i] * pool[b]
	OpMaddVV             // rd[i] = reg_a[i]*reg_b[i] + reg_c[i]
	OpMaddVS             // rd[i] = reg_a[i]*pool[b] + reg_c[i]
	OpPowV               // rd[i] = ipow(reg_a[i], b)
)

// NumOpcodes is the size of the vector-opcode vocabulary.
const NumOpcodes = int(OpPowV) + 1

// Instr is one register-VM instruction. Field use per opcode is documented
// on the opcode constants: Rd, A and C address row registers; B addresses
// the scalar pool, a load slot, an equation index, an integer exponent, or
// the second source register (VV forms).
type Instr struct {
	Op          byte
	Rd, A, B, C int32
}

// Scalar-prelude opcodes, executed once per Bind over the scalar pool.
const (
	sAdd byte = iota // pool[dst] = pool[a] + pool[b]
	sMul             // pool[dst] = pool[a] * pool[b]
	sPow             // pool[dst] = ipow(pool[a], b)
)

type scalarInstr struct {
	op        byte
	dst, a, b int32
}

// Kernel is a compiled loop nest: flat bytecode plus the resolved storage
// it executes against. It is the bytecode engine's counterpart of
// runtime.Kernel and satisfies the same execution contract.
type Kernel struct {
	// prog is the flat row program: temporary assignments, then each
	// equation's expression followed by its store, in source order. Load
	// slots and store outputs index the driver binding's Slots and Outs.
	prog []Instr
	// prelude derives bind-time scalars (hoisted invariants, reciprocals).
	prelude []scalarInstr
	// pool is the scalar-pool template: constants are pre-filled; symbol
	// and derived entries are populated by BindSyms.
	pool []float64
	// symSlots maps SymNames[i] to its pool slot.
	symSlots []int32
	// SymNames lists the scalar symbols bound at execution time.
	SymNames []string
	// Radius is the stencil radius per dimension (halo requirement).
	Radius []int

	numRegs int
	flops   int

	// drv is the kernel's private tile driver: the field binding plus the
	// reusable dispatch state, allocated at compile time.
	drv *runtime.Driver[scratch]
}

// Binding returns the storage the kernel executes against (the native
// engine binds its own driver to it, and the segment extraction reads the
// slot and output tables).
func (k *Kernel) Binding() *runtime.Binding { return k.drv.Binding }

// BindSyms builds the execution-time scalar pool from a name->value map:
// symbol slots are filled, then the prelude derives the hoisted scalars.
// It errors on missing entries, like the interpreter's BindSyms.
func (k *Kernel) BindSyms(vals map[string]float64) ([]float64, error) {
	return k.BindSymsInto(nil, vals)
}

// BindSymsInto is BindSyms into pool's storage: the pool is built over
// pool[:0], so a caller that binds again with the last result allocates
// nothing.
func (k *Kernel) BindSymsInto(pool []float64, vals map[string]float64) ([]float64, error) {
	pool = append(pool[:0], k.pool...)
	for i, n := range k.SymNames {
		v, ok := vals[n]
		if !ok {
			return nil, fmt.Errorf("bytecode: unbound scalar symbol %q", n)
		}
		pool[k.symSlots[i]] = v
	}
	for i := range k.prelude {
		in := &k.prelude[i]
		switch in.op {
		case sAdd:
			pool[in.dst] = pool[in.a] + pool[in.b]
		case sMul:
			pool[in.dst] = pool[in.a] * pool[in.b]
		case sPow:
			pool[in.dst] = runtime.Ipow(pool[in.a], int(in.b))
		}
	}
	return pool, nil
}

// FlopsPerPoint reports the per-point flop cost of the compiled kernel,
// counted identically to the interpreter engine.
func (k *Kernel) FlopsPerPoint() int { return k.flops }

// StencilRadius returns the per-dimension stencil radius.
func (k *Kernel) StencilRadius() []int { return k.Radius }

// NumRegisters reports the size of the row-register file (for tests and
// the compilation report).
func (k *Kernel) NumRegisters() int { return k.numRegs }

// ProgramLen reports the instruction count of the row program.
func (k *Kernel) ProgramLen() int { return len(k.prog) }

// PoolSize reports the scalar-pool length (consts + syms + derived).
func (k *Kernel) PoolSize() int { return len(k.pool) }

// InstrsPerPoint reports the number of VM instructions executed per grid
// point: the row program's length (each row instruction performs its
// operation once per point of the row; the bind-time scalar prelude is
// excluded because it runs once per Apply, not per point). The autotuner's
// cost model scales this by a per-instruction latency to predict compute
// time.
func (k *Kernel) InstrsPerPoint() int { return k.ProgramLen() }
