package bytecode

import (
	"fmt"
	"math"

	"devigo/internal/field"
	"devigo/internal/runtime"
	"devigo/internal/symbolic"
)

// CompileNest compiles the optimized form of a loop nest — per-point CSE
// temporaries (assigns) followed by the update equations — into flat
// register bytecode. Scalar symbols matching an assign name compile to
// pinned row registers; all other scalars land in the bind-time pool.
func CompileNest(assigns []symbolic.Assignment, eqs []symbolic.Eq, radius []int,
	fields map[string]*field.Function) (*Kernel, error) {
	return CompileKeyed(assigns, eqs, symbolic.KeyNest(assigns, eqs), radius, fields)
}

// CompileKeyed is CompileNest over the nest's keyed body, as CSE left it
// (iet.LoopNest.Keyed): kn.Temps[i] is assigns[i]'s value and kn.RHS[i]
// eqs[i]'s right-hand side. It renders nothing: a subtree's key and
// whether it varies per point come from the keyed tree.
func CompileKeyed(assigns []symbolic.Assignment, eqs []symbolic.Eq, kn symbolic.KeyedNest,
	radius []int, fields map[string]*field.Function) (*Kernel, error) {
	k := &Kernel{Radius: append([]int(nil), radius...)}
	c := &compiler{
		k:           k,
		bd:          &runtime.Binding{},
		fields:      fields,
		symPool:     map[string]int32{},
		constPool:   map[uint64]int32{},
		tempReg:     map[string]int32{},
		scalarCache: map[string]int32{},
		loadCache:   map[int32]int32{},
		cacheReg:    map[int32]int32{},
	}

	// Per-point temporaries first, in order: each lands in a pinned row
	// register readable by every later temporary and equation.
	for i, a := range assigns {
		res, err := c.compileVec(kn.Temps[i])
		if err != nil {
			return nil, err
		}
		var reg int32
		switch res.kind {
		case oScratch:
			reg = res.idx
		case oScalar:
			reg = c.allocReg()
			c.emit(Instr{Op: OpMovS, Rd: reg, B: res.idx})
		default: // pinned (cached load or earlier temp): keep a private copy
			reg = c.allocReg()
			c.emit(Instr{Op: OpCopy, Rd: reg, A: res.idx})
		}
		c.tempReg[a.Name] = reg
	}

	// Equations in program order; each stores its row before the next
	// equation compiles, so center reads of just-written fields observe
	// the new values exactly as in the per-point interpreter.
	for i, eq := range eqs {
		lhs, ok := eq.LHS.(symbolic.Access)
		if !ok {
			return nil, fmt.Errorf("bytecode: equation LHS must be a function access, got %s", eq.LHS)
		}
		fi, err := c.bd.AddField(lhs.Fun.Name, fields)
		if err != nil {
			return nil, err
		}
		res, err := c.compileVec(kn.RHS[i])
		if err != nil {
			return nil, err
		}
		if res.kind == oScalar {
			reg := c.allocReg()
			c.emit(Instr{Op: OpMovS, Rd: reg, B: res.idx})
			res = opnd{kind: oScratch, idx: reg}
		}
		ei := int32(len(c.bd.Outs))
		c.bd.Outs = append(c.bd.Outs, runtime.Out{Field: fi, TimeOff: lhs.TimeOff})
		c.emit(Instr{Op: OpStore, A: res.idx, B: ei})
		if res.kind == oScratch {
			c.freeRegs = append(c.freeRegs, res.idx)
		}
		c.invalidate(fi)
		k.flops += kn.RHS[i].Flops() + 1
	}

	if err := c.bd.Validate(); err != nil {
		return nil, err
	}
	k.numRegs = int(c.nextReg)
	k.drv = runtime.NewDriver[scratch](c.bd)
	return k, nil
}

// opnd is a compiled operand: a scalar-pool entry, a reusable scratch row
// register, or a pinned row register (CSE temporary or cached load) that
// consumers must not free or overwrite.
type opnd struct {
	kind byte
	idx  int32
}

const (
	oScalar byte = iota
	oScratch
	oPinned
)

type compiler struct {
	k      *Kernel
	bd     *runtime.Binding
	fields map[string]*field.Function

	symPool   map[string]int32 // scalar symbol -> pool slot
	constPool map[uint64]int32 // float64 bits -> pool slot
	tempReg   map[string]int32 // CSE temporary -> pinned register
	// scalarCache dedups bind-time evaluation of identical scalar
	// subtrees (canonical string -> pool slot).
	scalarCache map[string]int32
	// known marks pool entries whose value is a compile-time constant,
	// enabling constant folding in the scalar prelude.
	known []bool

	// loadCache maps a slot to the register holding its current row, so
	// duplicate reads compile to a single load; stores to the slot's
	// field evict it.
	loadCache map[int32]int32
	cacheReg  map[int32]int32 // reverse: register -> slot

	freeRegs []int32
	nextReg  int32
}

func (c *compiler) emit(in Instr) { c.k.prog = append(c.k.prog, in) }

func (c *compiler) allocReg() int32 {
	if n := len(c.freeRegs); n > 0 {
		r := c.freeRegs[n-1]
		c.freeRegs = c.freeRegs[:n-1]
		return r
	}
	r := c.nextReg
	c.nextReg++
	return r
}

// pick chooses the destination register, reusing the first scratch
// operand in-place when possible (elementwise ops tolerate aliasing).
func (c *compiler) pick(cands ...opnd) int32 {
	for _, o := range cands {
		if o.kind == oScratch {
			return o.idx
		}
	}
	return c.allocReg()
}

// releaseExcept frees every scratch operand that did not become rd.
func (c *compiler) releaseExcept(rd int32, os ...opnd) {
	for _, o := range os {
		if o.kind == oScratch && o.idx != rd {
			c.freeRegs = append(c.freeRegs, o.idx)
		}
	}
}

// invalidate evicts cached loads of the field an equation just stored to,
// regardless of time offset (cyclic time buffers may alias offsets).
func (c *compiler) invalidate(fieldIdx int) {
	for si := range c.bd.Slots {
		si32 := int32(si)
		reg, cached := c.loadCache[si32]
		if !cached || c.bd.Slots[si].Field != fieldIdx {
			continue
		}
		delete(c.loadCache, si32)
		delete(c.cacheReg, reg)
		c.freeRegs = append(c.freeRegs, reg)
	}
}

// --- scalar pool -----------------------------------------------------------

func (c *compiler) addPoolSlot(v float64, known bool) int32 {
	idx := int32(len(c.k.pool))
	c.k.pool = append(c.k.pool, v)
	c.known = append(c.known, known)
	return idx
}

func (c *compiler) addConst(v float64) int32 {
	key := math.Float64bits(v)
	if idx, ok := c.constPool[key]; ok {
		return idx
	}
	idx := c.addPoolSlot(v, true)
	c.constPool[key] = idx
	return idx
}

func (c *compiler) getSym(name string) int32 {
	if idx, ok := c.symPool[name]; ok {
		return idx
	}
	idx := c.addPoolSlot(0, false)
	c.symPool[name] = idx
	c.k.SymNames = append(c.k.SymNames, name)
	c.k.symSlots = append(c.k.symSlots, idx)
	return idx
}

// scalarBin emits pool[dst] = pool[a] op pool[b] into the bind-time
// prelude — or folds it right away when both operands are compile-time
// constants (the identical float64 operation runs either way, so folding
// cannot change bits).
func (c *compiler) scalarBin(op byte, a, b int32) int32 {
	if c.known[a] && c.known[b] {
		var v float64
		if op == sAdd {
			v = c.k.pool[a] + c.k.pool[b]
		} else {
			v = c.k.pool[a] * c.k.pool[b]
		}
		return c.addConst(v)
	}
	dst := c.addPoolSlot(0, false)
	c.k.prelude = append(c.k.prelude, scalarInstr{op: op, dst: dst, a: a, b: b})
	return dst
}

func (c *compiler) scalarPow(a int32, exp int) int32 {
	if c.known[a] {
		return c.addConst(runtime.Ipow(c.k.pool[a], exp))
	}
	dst := c.addPoolSlot(0, false)
	c.k.prelude = append(c.k.prelude, scalarInstr{op: sPow, dst: dst, a: a, b: int32(exp)})
	return dst
}

// compileScalar lowers a subtree that does not vary per point — one built
// from constants and bind-time scalar symbols only — to a pool slot.
// Identical subtrees (by key) share one slot. The prelude replays the
// interpreter's left-nested evaluation order with the same float64
// operations, so the hoisted value is bit-identical to what the
// interpreter would compute at every point.
func (c *compiler) compileScalar(k symbolic.Keyed) (int32, error) {
	if idx, ok := c.scalarCache[k.Key]; ok {
		return idx, nil
	}
	var idx int32
	switch v := k.Expr.(type) {
	case symbolic.Num:
		f, _ := v.Val.Float64()
		idx = c.addConst(f)
	case symbolic.Sym:
		idx = c.getSym(v.Name)
	case symbolic.Add, symbolic.Mul:
		// A sum or product folds left to right: ((a op b) op c) ...
		op := sAdd
		if _, isMul := v.(symbolic.Mul); isMul {
			op = sMul
		}
		acc, err := c.compileScalar(k.Ops[0])
		if err != nil {
			return 0, err
		}
		for _, o := range k.Ops[1:] {
			oi, err := c.compileScalar(o)
			if err != nil {
				return 0, err
			}
			acc = c.scalarBin(op, acc, oi)
		}
		idx = acc
	case symbolic.Pow:
		base, err := c.compileScalar(k.Ops[0])
		if err != nil {
			return 0, err
		}
		idx = c.scalarPow(base, v.Exp)
	default:
		return 0, fmt.Errorf("bytecode: internal: %T is not scalar-pure", k.Expr)
	}
	c.scalarCache[k.Key] = idx
	return idx, nil
}

// --- vector compilation ----------------------------------------------------

// compileVec lowers k to an operand: a pool scalar when the subtree does
// not vary per point, a row register otherwise.
func (c *compiler) compileVec(k symbolic.Keyed) (opnd, error) {
	if !k.Varies() {
		idx, err := c.compileScalar(k)
		return opnd{kind: oScalar, idx: idx}, err
	}
	switch v := k.Expr.(type) {
	case symbolic.Sym:
		reg, ok := c.tempReg[v.Name]
		if !ok {
			return opnd{}, fmt.Errorf("bytecode: internal: symbol %q is neither scalar nor temporary", v.Name)
		}
		return opnd{kind: oPinned, idx: reg}, nil
	case symbolic.Access:
		return c.load(v)
	case symbolic.Add:
		return c.compileAdd(k.Ops)
	case symbolic.Mul:
		return c.compileMul(k.Ops)
	case symbolic.Pow:
		base, err := c.compileVec(k.Ops[0])
		if err != nil {
			return opnd{}, err
		}
		rd := c.pick(base)
		c.emit(Instr{Op: OpPowV, Rd: rd, A: base.idx, B: int32(v.Exp)})
		c.releaseExcept(rd, base)
		return opnd{kind: oScratch, idx: rd}, nil
	case symbolic.Deriv:
		return opnd{}, fmt.Errorf("bytecode: unexpanded derivative reached codegen: %s", v)
	default:
		return opnd{}, fmt.Errorf("bytecode: cannot compile %T", k.Expr)
	}
}

// load resolves a field access to a slot and returns the register caching
// its row, emitting the load only on first use.
func (c *compiler) load(a symbolic.Access) (opnd, error) {
	fi, err := c.bd.AddField(a.Fun.Name, c.fields)
	if err != nil {
		return opnd{}, err
	}
	slot, err := c.bd.AddSlot(fi, a.TimeOff, a.Off)
	if err != nil {
		return opnd{}, err
	}
	si := int32(slot)
	if reg, cached := c.loadCache[si]; cached {
		return opnd{kind: oPinned, idx: reg}, nil
	}
	reg := c.allocReg()
	c.emit(Instr{Op: OpLoad, Rd: reg, B: si})
	c.loadCache[si] = reg
	c.cacheReg[reg] = si
	return opnd{kind: oPinned, idx: reg}, nil
}

// scalarPrefix folds the maximal prefix of parts that does not vary per
// point into one bind-time pool entry (preserving left-nested order) and
// returns it with the number of parts consumed; j == 0 means the first
// part is vector.
func (c *compiler) scalarPrefix(parts []symbolic.Keyed, mul bool) (opnd, int, error) {
	j := 0
	for j < len(parts) && !parts[j].Varies() {
		j++
	}
	if j == 0 {
		return opnd{}, 0, nil
	}
	group := parts[0]
	if j > 1 {
		group = symbolic.Group(parts[:j], mul)
	}
	idx, err := c.compileScalar(group)
	return opnd{kind: oScalar, idx: idx}, j, err
}

// compileAdd accumulates terms left to right exactly like the
// interpreter's binary-add chain, fusing multiply terms into madd
// instructions (mul-then-add with two roundings — dispatch fusion only).
func (c *compiler) compileAdd(terms []symbolic.Keyed) (opnd, error) {
	acc, i, err := c.scalarPrefix(terms, false)
	if err != nil {
		return opnd{}, err
	}
	if i == 0 {
		acc, err = c.compileVec(terms[0])
		if err != nil {
			return opnd{}, err
		}
		i = 1
	}
	for ; i < len(terms); i++ {
		acc, err = c.addTerm(acc, terms[i])
		if err != nil {
			return opnd{}, err
		}
	}
	return acc, nil
}

func (c *compiler) addTerm(acc opnd, term symbolic.Keyed) (opnd, error) {
	if !term.Varies() {
		s, err := c.compileScalar(term)
		if err != nil {
			return opnd{}, err
		}
		if acc.kind == oScalar {
			return opnd{kind: oScalar, idx: c.scalarBin(sAdd, acc.idx, s)}, nil
		}
		return c.addVS(acc, s), nil
	}
	if _, ok := term.Expr.(symbolic.Mul); ok && acc.kind != oScalar {
		partial, last, err := c.compileMulSplit(term.Ops)
		if err != nil {
			return opnd{}, err
		}
		if partial.kind != oScalar || last.kind != oScalar {
			return c.madd(partial, last, acc), nil
		}
		// Both halves scalar cannot happen (the term would not vary);
		// recombine defensively.
		return c.addVS(acc, c.scalarBin(sMul, partial.idx, last.idx)), nil
	}
	v, err := c.compileVec(term)
	if err != nil {
		return opnd{}, err
	}
	if acc.kind == oScalar {
		// IEEE addition commutes bitwise, so v + s == s + v.
		return c.addVS(v, acc.idx), nil
	}
	rd := c.pick(acc, v)
	c.emit(Instr{Op: OpAddVV, Rd: rd, A: acc.idx, B: v.idx})
	c.releaseExcept(rd, acc, v)
	return opnd{kind: oScratch, idx: rd}, nil
}

func (c *compiler) addVS(v opnd, s int32) opnd {
	rd := c.pick(v)
	c.emit(Instr{Op: OpAddVS, Rd: rd, A: v.idx, B: s})
	c.releaseExcept(rd, v)
	return opnd{kind: oScratch, idx: rd}
}

func (c *compiler) mulVS(v opnd, s int32) opnd {
	rd := c.pick(v)
	c.emit(Instr{Op: OpMulVS, Rd: rd, A: v.idx, B: s})
	c.releaseExcept(rd, v)
	return opnd{kind: oScratch, idx: rd}
}

// madd emits rd = x*y + acc, picking the VS form when one multiplicand is
// a pool scalar (IEEE multiplication commutes bitwise).
func (c *compiler) madd(x, y, acc opnd) opnd {
	switch {
	case x.kind == oScalar:
		rd := c.pick(acc, y)
		c.emit(Instr{Op: OpMaddVS, Rd: rd, A: y.idx, B: x.idx, C: acc.idx})
		c.releaseExcept(rd, acc, y)
		return opnd{kind: oScratch, idx: rd}
	case y.kind == oScalar:
		rd := c.pick(acc, x)
		c.emit(Instr{Op: OpMaddVS, Rd: rd, A: x.idx, B: y.idx, C: acc.idx})
		c.releaseExcept(rd, acc, x)
		return opnd{kind: oScratch, idx: rd}
	default:
		rd := c.pick(acc, x, y)
		c.emit(Instr{Op: OpMaddVV, Rd: rd, A: x.idx, B: y.idx, C: acc.idx})
		c.releaseExcept(rd, acc, x, y)
		return opnd{kind: oScratch, idx: rd}
	}
}

// compileMul multiplies factors left to right, exactly mirroring the
// interpreter's binary-multiply chain; factors that do not vary per point
// use the pool.
func (c *compiler) compileMul(factors []symbolic.Keyed) (opnd, error) {
	acc, i, err := c.scalarPrefix(factors, true)
	if err != nil {
		return opnd{}, err
	}
	if i == 0 {
		acc, err = c.compileVec(factors[0])
		if err != nil {
			return opnd{}, err
		}
		i = 1
	}
	if i == len(factors) {
		return acc, nil
	}
	for ; i < len(factors); i++ {
		f := factors[i]
		if !f.Varies() {
			s, err := c.compileScalar(f)
			if err != nil {
				return opnd{}, err
			}
			if acc.kind == oScalar {
				acc = opnd{kind: oScalar, idx: c.scalarBin(sMul, acc.idx, s)}
				continue
			}
			acc = c.mulVS(acc, s)
			continue
		}
		v, err := c.compileVec(f)
		if err != nil {
			return opnd{}, err
		}
		if acc.kind == oScalar {
			// IEEE multiplication commutes bitwise, so v * s == s * v.
			acc = c.mulVS(v, acc.idx)
			continue
		}
		rd := c.pick(acc, v)
		c.emit(Instr{Op: OpMulVV, Rd: rd, A: acc.idx, B: v.idx})
		c.releaseExcept(rd, acc, v)
		acc = opnd{kind: oScratch, idx: rd}
	}
	return acc, nil
}

// compileMulSplit evaluates the product of all factors but the last (in
// interpreter order) and returns it with the compiled last factor, so the
// caller can fuse the final multiply into an accumulate.
func (c *compiler) compileMulSplit(factors []symbolic.Keyed) (opnd, opnd, error) {
	n := len(factors)
	var partial opnd
	var err error
	if n == 2 {
		partial, err = c.compileVec(factors[0])
	} else {
		partial, err = c.compileMul(factors[:n-1])
	}
	if err != nil {
		return opnd{}, opnd{}, err
	}
	last, err := c.compileVec(factors[n-1])
	if err != nil {
		return opnd{}, opnd{}, err
	}
	return partial, last, nil
}
