package runtime

// stackCap bounds expression depth; TTI kernels stay far below this.
const stackCap = 256

// tempCap bounds the per-point CSE temporary register file.
const tempCap = 512

// irScratch is one worker's private evaluation state: the expression
// stack and the CSE temporaries.
type irScratch struct {
	stack [stackCap]float64
	temps [tempCap]float64
}

// Run executes every equation of the kernel at every point of the box for
// logical timestep t, with scalars bound via syms (from BindSyms). Points
// run in row-major order; equations run in program order at each point.
func (k *Kernel) Run(t int, b Box, syms []float64, opts *ExecOpts) {
	k.drv.Run(k, t, b, syms, opts)
}

// Prep implements RowExec; the fixed-size scratch needs no preparation.
func (k *Kernel) Prep(*irScratch, int, []float64) {}

// ExecRows implements RowExec: row after row, at each point of the row,
// the temporaries then the equations, so later equations observe earlier
// stores exactly as a per-point loop nest would.
func (k *Kernel) ExecRows(sc *irScratch, n, rows int, bases, pitch []int, syms []float64) {
	for r := 0; r < rows; r++ {
		if r > 0 {
			NextRow(bases, pitch)
		}
		k.execRow(sc, n, bases, syms)
	}
}

// execRow runs the kernel over one row of n points.
func (k *Kernel) execRow(sc *irScratch, n int, bases []int, syms []float64) {
	d := k.drv
	for x := 0; x < n; x++ {
		for ti := range k.Temps {
			sc.temps[ti] = k.evalEq(sc, &k.Temps[ti], bases, x, syms)
		}
		for ei := range k.Eqs {
			d.OutData[ei][bases[d.Outs[ei].Field]+x] = float32(k.evalEq(sc, &k.Eqs[ei], bases, x, syms))
		}
	}
}

// evalEq evaluates one compiled equation at row offset x with worker
// scratch sc.
func (k *Kernel) evalEq(sc *irScratch, e *CompiledEq, bases []int, x int, syms []float64) float64 {
	d := k.drv
	sp := 0
	for pi := range e.prog {
		in := &e.prog[pi]
		switch in.op {
		case opConst:
			sc.stack[sp] = in.v
			sp++
		case opSym:
			sc.stack[sp] = syms[in.a]
			sp++
		case opTemp:
			sc.stack[sp] = sc.temps[in.a]
			sp++
		case opLoad:
			sc.stack[sp] = float64(d.SlotData[in.a][bases[d.Slots[in.a].Field]+x+d.SlotOff[in.a]])
			sp++
		case opAdd:
			n := in.a
			acc := sc.stack[sp-n]
			for j := sp - n + 1; j < sp; j++ {
				acc += sc.stack[j]
			}
			sp -= n - 1
			sc.stack[sp-1] = acc
		case opMul:
			n := in.a
			acc := sc.stack[sp-n]
			for j := sp - n + 1; j < sp; j++ {
				acc *= sc.stack[j]
			}
			sp -= n - 1
			sc.stack[sp-1] = acc
		case opPow:
			v := sc.stack[sp-1]
			sc.stack[sp-1] = Ipow(v, in.a)
		}
	}
	return sc.stack[0]
}

// Ipow is the engines' shared integer-power helper: repeated
// multiplication starting from 1, with a final reciprocal for negative
// exponents. Every engine calls this one definition, so the operation
// order — and therefore every bit of the result — is identical across them.
func Ipow(v float64, e int) float64 {
	if e == 0 {
		return 1
	}
	neg := e < 0
	if neg {
		e = -e
	}
	out := 1.0
	for i := 0; i < e; i++ {
		out *= v
	}
	if neg {
		return 1 / out
	}
	return out
}
