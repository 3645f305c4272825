package bytecode

import "devigo/internal/runtime"

// scratch is one worker's private whole-row register file: numRegs rows
// of stride points each. Allocated once per worker and reused across tiles
// and timesteps; it grows monotonically if a later sweep has longer rows.
type scratch struct {
	regs   []float64
	stride int
}

// Run executes the compiled program at every point of the box for logical
// timestep t, with the scalar pool from BindSyms. The shared tile driver
// gives it the interpreter's execution contract exactly: row-major point
// order, equations in program order on each row, tiling over the outer
// dimension, worker-pool parallelism and the Progress prod between tiles.
func (k *Kernel) Run(t int, b runtime.Box, pool []float64, opts *runtime.ExecOpts) {
	k.drv.Run(k, t, b, pool, opts)
}

// Prep implements runtime.RowExec: the register file holds whole rows, so
// it is sized for the longest row of the sweep.
func (k *Kernel) Prep(sc *scratch, maxRow int, _ []float64) {
	if n := k.numRegs * maxRow; len(sc.regs) < n {
		sc.regs = make([]float64, n)
	}
	sc.stride = maxRow
}

// ExecRow implements runtime.RowExec: one sweep of the row program.
func (k *Kernel) ExecRow(sc *scratch, n int, bases []int, pool []float64) {
	sweep(k.prog, &k.drv.Resolved, sc.regs, sc.stride, n, bases, pool)
}

// sweep executes a row program once over one row of n points, one whole-row
// pass per instruction. regs is the register file with row pitch stride
// (>= n); bases are the row's per-field start indices and r the slot and
// output data resolved for this Run.
func sweep(prog []Instr, r *runtime.Resolved, regs []float64, stride, n int, bases []int, pool []float64) {
	reg := func(i int32) []float64 {
		off := int(i) * stride
		return regs[off : off+n]
	}
	for pi := range prog {
		in := &prog[pi]
		switch in.Op {
		case OpLoad:
			off := bases[r.Slots[in.B].Field] + r.SlotOff[in.B]
			src := r.SlotData[in.B][off : off+n]
			rd := reg(in.Rd)
			for i, v := range src {
				rd[i] = float64(v)
			}
		case OpStore:
			off := bases[r.Outs[in.B].Field]
			dst := r.OutData[in.B][off : off+n]
			ra := reg(in.A)
			for i, v := range ra {
				dst[i] = float32(v)
			}
		case OpCopy:
			copy(reg(in.Rd), reg(in.A))
		case OpMovS:
			rd, v := reg(in.Rd), pool[in.B]
			for i := range rd {
				rd[i] = v
			}
		case OpAddVV:
			rd := reg(in.Rd)
			ra := reg(in.A)[:len(rd)]
			rb := reg(in.B)[:len(rd)]
			for i := range rd {
				rd[i] = ra[i] + rb[i]
			}
		case OpAddVS:
			rd := reg(in.Rd)
			ra := reg(in.A)[:len(rd)]
			s := pool[in.B]
			for i := range rd {
				rd[i] = ra[i] + s
			}
		case OpMulVV:
			rd := reg(in.Rd)
			ra := reg(in.A)[:len(rd)]
			rb := reg(in.B)[:len(rd)]
			for i := range rd {
				rd[i] = ra[i] * rb[i]
			}
		case OpMulVS:
			rd := reg(in.Rd)
			ra := reg(in.A)[:len(rd)]
			s := pool[in.B]
			for i := range rd {
				rd[i] = ra[i] * s
			}
		case OpMaddVV:
			rd := reg(in.Rd)
			ra := reg(in.A)[:len(rd)]
			rb := reg(in.B)[:len(rd)]
			rc := reg(in.C)[:len(rd)]
			// Mul then add, each rounded: dispatch fusion only. The
			// explicit float64 conversion forces the intermediate
			// rounding (Go spec), forbidding hardware-FMA contraction on
			// arm64 et al. that would break bit-exactness with the
			// interpreter's two ops.
			for i := range rd {
				rd[i] = float64(ra[i]*rb[i]) + rc[i]
			}
		case OpMaddVS:
			rd := reg(in.Rd)
			ra := reg(in.A)[:len(rd)]
			rc := reg(in.C)[:len(rd)]
			s := pool[in.B]
			for i := range rd {
				rd[i] = float64(ra[i]*s) + rc[i]
			}
		case OpPowV:
			rd := reg(in.Rd)
			ra := reg(in.A)[:len(rd)]
			e := int(in.B)
			for i := range rd {
				rd[i] = runtime.Ipow(ra[i], e)
			}
		}
	}
}
