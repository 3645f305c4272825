// Package runtime executes compiled stencil kernels: the devigo equivalent
// of the JIT-compiled C code. Clusters are compiled to a compact
// stack-machine program per equation; the executor runs the program over a
// tiled loop nest with optional worker-pool parallelism (the stand-in for
// OpenMP threads).
package runtime

import (
	"fmt"

	"devigo/internal/field"
	"devigo/internal/symbolic"
)

// Opcodes of the stencil VM.
const (
	opConst byte = iota // push literal v
	opSym               // push bound scalar syms[a]
	opLoad              // push field value via slot a
	opAdd               // pop a values, push their sum
	opMul               // pop a values, push their product
	opPow               // pop base, push base**a (integer exponent)
	opTemp              // push per-point temporary temps[a]
)

type instr struct {
	op byte
	a  int
	v  float64
}

// CompiledEq is one lowered equation ready to execute.
type CompiledEq struct {
	prog     []instr
	maxStack int
	flops    int
}

// Kernel is a compiled cluster: every equation of one fused loop nest.
type Kernel struct {
	// Eqs are the update equations; Eqs[i] stores to the driver binding's
	// Outs[i].
	Eqs []CompiledEq
	// Temps are per-point scalar temporaries (CSE extractions), executed
	// in order before the equations at every point; temps[i] receives the
	// result of Temps[i].
	Temps []CompiledEq
	// SymNames maps the bound-scalar vector: syms[i] carries the value of
	// SymNames[i] at execution time.
	SymNames []string
	// Radius is the stencil radius per dimension (halo requirement).
	Radius []int
	// drv is the kernel's private tile driver: the field binding plus the
	// reusable dispatch state, allocated at compile time.
	drv *Driver[irScratch]
}

// CompileNest compiles the *optimized* form of a loop nest: per-point CSE
// temporaries (assigns) followed by the update equations. Scalar symbols
// that match an assign name compile to temporary-register reads; all other
// symbols (including hoisted invariants) are bound at execution time via
// BindSyms.
func CompileNest(assigns []symbolic.Assignment, eqs []symbolic.Eq, radius []int,
	fields map[string]*field.Function) (*Kernel, error) {
	k := &Kernel{Radius: append([]int(nil), radius...)}
	bd := &Binding{}
	symIdx := map[string]int{}
	tempIdx := map[string]int{}
	for i, a := range assigns {
		tempIdx[a.Name] = i
	}

	getSym := func(name string) int {
		if i, ok := symIdx[name]; ok {
			return i
		}
		i := len(k.SymNames)
		symIdx[name] = i
		k.SymNames = append(k.SymNames, name)
		return i
	}
	var compile func(e symbolic.Expr, prog *[]instr, depth int, maxDepth *int) error
	compile = func(e symbolic.Expr, prog *[]instr, depth int, maxDepth *int) error {
		bump := func(d int) {
			if d > *maxDepth {
				*maxDepth = d
			}
		}
		switch v := e.(type) {
		case symbolic.Num:
			f, _ := v.Val.Float64()
			*prog = append(*prog, instr{op: opConst, v: f})
			bump(depth + 1)
		case symbolic.Sym:
			if ti, ok := tempIdx[v.Name]; ok {
				*prog = append(*prog, instr{op: opTemp, a: ti})
			} else {
				*prog = append(*prog, instr{op: opSym, a: getSym(v.Name)})
			}
			bump(depth + 1)
		case symbolic.Access:
			fi, err := bd.AddField(v.Fun.Name, fields)
			if err != nil {
				return err
			}
			si, err := bd.AddSlot(fi, v.TimeOff, v.Off)
			if err != nil {
				return err
			}
			*prog = append(*prog, instr{op: opLoad, a: si})
			bump(depth + 1)
		case symbolic.Add:
			// Binary accumulation keeps the stack depth proportional to
			// tree depth rather than term count (3-D TTI sums have
			// hundreds of terms).
			for i, t := range v.Terms {
				d := depth
				if i > 0 {
					d = depth + 1
				}
				if err := compile(t, prog, d, maxDepth); err != nil {
					return err
				}
				if i > 0 {
					*prog = append(*prog, instr{op: opAdd, a: 2})
				}
			}
		case symbolic.Mul:
			for i, f := range v.Factors {
				d := depth
				if i > 0 {
					d = depth + 1
				}
				if err := compile(f, prog, d, maxDepth); err != nil {
					return err
				}
				if i > 0 {
					*prog = append(*prog, instr{op: opMul, a: 2})
				}
			}
		case symbolic.Pow:
			if err := compile(v.Base, prog, depth, maxDepth); err != nil {
				return err
			}
			*prog = append(*prog, instr{op: opPow, a: v.Exp})
		case symbolic.Deriv:
			return fmt.Errorf("runtime: unexpanded derivative reached codegen: %s", v)
		default:
			return fmt.Errorf("runtime: cannot compile %T", e)
		}
		return nil
	}

	for _, a := range assigns {
		ce := CompiledEq{flops: symbolic.FlopCount(a.Value)}
		if err := compile(a.Value, &ce.prog, 0, &ce.maxStack); err != nil {
			return nil, err
		}
		if ce.maxStack > stackCap {
			return nil, fmt.Errorf("runtime: temporary too deep (stack %d > %d)", ce.maxStack, stackCap)
		}
		k.Temps = append(k.Temps, ce)
	}
	if len(k.Temps) > tempCap {
		return nil, fmt.Errorf("runtime: too many per-point temporaries (%d > %d)", len(k.Temps), tempCap)
	}
	for _, eq := range eqs {
		lhs := eq.LHS.(symbolic.Access)
		fi, err := bd.AddField(lhs.Fun.Name, fields)
		if err != nil {
			return nil, err
		}
		bd.Outs = append(bd.Outs, Out{Field: fi, TimeOff: lhs.TimeOff})
		ce := CompiledEq{flops: symbolic.FlopCount(eq.RHS)}
		if err := compile(eq.RHS, &ce.prog, 0, &ce.maxStack); err != nil {
			return nil, err
		}
		if ce.maxStack > stackCap {
			return nil, fmt.Errorf("runtime: expression too deep (stack %d > %d)", ce.maxStack, stackCap)
		}
		k.Eqs = append(k.Eqs, ce)
	}
	if err := bd.Validate(); err != nil {
		return nil, err
	}
	k.drv = NewDriver[irScratch](bd)
	return k, nil
}

// StencilRadius returns the per-dimension stencil radius (the execution
// contract shared with the bytecode engine).
func (k *Kernel) StencilRadius() []int { return k.Radius }

// FlopsPerPoint reports the per-point flop cost of the compiled kernel.
func (k *Kernel) FlopsPerPoint() int {
	n := 0
	for _, e := range k.Eqs {
		n += e.flops + 1
	}
	return n
}

// InstrsPerPoint reports the number of VM instructions the interpreter
// dispatches per grid point: the summed program lengths of every per-point
// temporary and update equation. The autotuner's cost model scales this by
// a per-instruction latency to predict compute time.
func (k *Kernel) InstrsPerPoint() int {
	n := 0
	for _, e := range k.Temps {
		n += len(e.prog)
	}
	for _, e := range k.Eqs {
		n += len(e.prog)
	}
	return n
}

// BindSyms builds the scalar binding vector from a name->value map,
// erroring on missing entries.
func (k *Kernel) BindSyms(vals map[string]float64) ([]float64, error) {
	return k.BindSymsInto(nil, vals)
}

// BindSymsInto is BindSyms into out's storage: the vector is built over
// out[:0], so a caller that binds again with the last result allocates
// nothing.
func (k *Kernel) BindSymsInto(out []float64, vals map[string]float64) ([]float64, error) {
	out = out[:0]
	for _, n := range k.SymNames {
		v, ok := vals[n]
		if !ok {
			return nil, fmt.Errorf("runtime: unbound scalar symbol %q", n)
		}
		out = append(out, v)
	}
	return out, nil
}
