package machine

import (
	"encoding/binary"
	"math"

	"flowery/internal/asm"
	"flowery/internal/ir"
	"flowery/internal/rt"
	"flowery/internal/sim"
)

// The fast execution core. execFast runs the predecoded micro-op array
// with lazy RFLAGS: cmp/test record their operands instead of computing
// the flags word, and the state is either consumed directly by a
// condition (Cond.EvalSub/EvalTest) or materialized into regs[RFLAGS]
// when architectural flags are unavoidable — before a fault injection
// targeting RFLAGS, and in the generic fallback. Instrumented runs
// (def-use tracing, pc ring, snapshot capture) and opts.Reference runs
// take the reference loop in exec.go instead, which is the semantic
// spec this core must match bit for bit.

type flagKind uint8

const (
	// flagsConcrete: regs[RFLAGS] holds the architectural flags (the only
	// state the reference core ever has).
	flagsConcrete flagKind = iota
	// flagsLazySub: the last flag write was cmp flagA, flagB at flagSize.
	flagsLazySub
	// flagsLazyTest: the last flag write was test, with flagA holding the
	// (unmasked) AND result at flagSize.
	flagsLazyTest
)

// fastOK reports whether this run may use the predecoded core. Any
// instrumentation pins the run to the reference loop, which is also how
// snapshot boundaries and trace hooks always observe materialized flags.
func (mc *Machine) fastOK() bool {
	return !mc.refCore && !mc.snapCapture && mc.traceRing == nil && mc.tr == nil
}

// liveFlags returns the architectural RFLAGS value of the live flag
// state, lazy or concrete.
func (mc *Machine) liveFlags() uint64 {
	switch mc.flagKind {
	case flagsLazySub:
		return setSubFlags(mc.flagA, mc.flagB, mc.flagSize)
	case flagsLazyTest:
		return setLogicFlags(mc.flagA, mc.flagSize)
	}
	return mc.regs[asm.RFLAGS]
}

// materializeFlags folds pending lazy flag state into regs[RFLAGS].
// No-op when the state is already concrete.
func (mc *Machine) materializeFlags() {
	mc.regs[asm.RFLAGS] = mc.liveFlags()
	mc.flagKind = flagsConcrete
}

// evalCond decides a condition against the live flag state without
// materializing it.
func (mc *Machine) evalCond(c asm.Cond) bool {
	switch mc.flagKind {
	case flagsLazySub:
		return c.EvalSub(mc.flagA, mc.flagB, mc.flagSize)
	case flagsLazyTest:
		return c.EvalTest(mc.flagA, mc.flagSize)
	default:
		return c.Eval(mc.regs[asm.RFLAGS])
	}
}

// fastLoad/fastStore are loadMem/storeMem with the byte loop replaced by
// little-endian word access; mapped() bounds the slice so the accesses
// cannot overrun. fastStore keeps the minTouch low-water mark (reset
// correctness) but not the snapshot dirty range — snapCapture runs never
// use this core.
func (mc *Machine) fastLoad(addr int64, size uint8) uint64 {
	if !mc.mapped(addr, int64(size)) {
		mc.trap(sim.TrapBadAddress)
	}
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(mc.mem[addr:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(mc.mem[addr:]))
	default:
		return uint64(mc.mem[addr])
	}
}

func (mc *Machine) fastStore(addr int64, size uint8, v uint64) {
	if !mc.mapped(addr, int64(size)) {
		mc.trap(sim.TrapBadAddress)
	}
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(mc.mem[addr:], v)
	case 4:
		binary.LittleEndian.PutUint32(mc.mem[addr:], uint32(v))
	default:
		mc.mem[addr] = byte(v)
	}
	if addr >= ir.StackLimit && addr < mc.minTouch {
		mc.minTouch = addr
	}
}

func (mc *Machine) fastPush(v uint64) {
	sp := int64(mc.regs[asm.RSP]) - 8
	mc.regs[asm.RSP] = uint64(sp)
	mc.fastStore(sp, 8, v)
}

func (mc *Machine) fastPop() uint64 {
	sp := int64(mc.regs[asm.RSP])
	v := mc.fastLoad(sp, 8)
	mc.regs[asm.RSP] = uint64(sp + 8)
	return v
}

// execFast runs from the current pc until the sentinel return, a trap,
// or convergence with the golden run. It must be observably identical to
// exec: same Result fields, same trap points, same pc/steps/inject values
// on every panic path — which is why the counters live in Machine fields
// rather than locals. The one per-instruction bound, stepLimit, folds the
// timeout and the next golden checkpoint into a single compare whose
// cold side is stepEvent.
//
// Operand truncation follows the reference but elides masks proven
// redundant: writeReg re-masks results at widths 1 and 4, and the
// specialized ALU ops (add/sub/imul/and/or/xor) are mask-stable, so
// reading registers unmasked produces the same stored bits. Right shifts
// and zero-extends genuinely consume high bits and keep their explicit
// truncVal.
func (mc *Machine) execFast() {
	uops := mc.uops
	n := int32(len(uops))
	for {
		if mc.pc < 0 || mc.pc >= n {
			mc.trap(sim.TrapBadJump)
		}
		u := &uops[mc.pc]
		mc.steps++
		if mc.steps > mc.stepLimit && mc.stepEvent() {
			return
		}

		switch u.kind {
		case uMovRR:
			mc.writeReg(u.dst, u.size, mc.regs[u.src])
		case uMovRI:
			mc.writeReg(u.dst, u.size, uint64(u.imm))
		case uMovLoad:
			mc.writeReg(u.dst, u.size, mc.fastLoad(mc.ea(u), u.size))
		case uMovStR:
			mc.fastStore(mc.ea(u), u.size, mc.regs[u.src])
		case uMovStI:
			mc.fastStore(mc.ea(u), u.size, uint64(u.imm))

		case uMovSXR:
			mc.writeReg(u.dst, 8, uint64(signExtend(mc.regs[u.src], u.size)))
		case uMovSXLoad:
			mc.writeReg(u.dst, 8, uint64(signExtend(mc.fastLoad(mc.ea(u), u.size), u.size)))
		case uMovZXR:
			mc.writeReg(u.dst, 8, truncVal(mc.regs[u.src], u.size))
		case uMovZXLoad:
			mc.writeReg(u.dst, 8, mc.fastLoad(mc.ea(u), u.size))
		case uLea:
			mc.writeReg(u.dst, 8, uint64(mc.ea(u)))

		case uAluRR, uAluRI, uAluLoad:
			a := mc.regs[u.dst]
			var b uint64
			switch u.kind {
			case uAluRR:
				b = mc.regs[u.src]
			case uAluRI:
				b = uint64(u.imm)
			default:
				b = mc.fastLoad(mc.ea(u), u.size)
			}
			var r uint64
			switch u.op {
			case asm.OpAdd:
				r = a + b
			case asm.OpSub:
				r = a - b
			case asm.OpIMul:
				r = a * b
			case asm.OpAnd:
				r = a & b
			case asm.OpOr:
				r = a | b
			default:
				r = a ^ b
			}
			mc.writeReg(u.dst, u.size, r)

		case uShiftRI, uShiftRR:
			a := mc.regs[u.dst]
			var c uint64
			if u.kind == uShiftRI {
				c = uint64(u.imm)
			} else {
				c = mc.regs[u.src]
			}
			if u.size == 8 {
				c &= 63
			} else {
				c &= 31
			}
			var r uint64
			switch u.op {
			case asm.OpShl:
				r = a << c
			case asm.OpSar:
				r = uint64(signExtend(a, u.size) >> c)
			default:
				r = truncVal(a, u.size) >> c
			}
			mc.writeReg(u.dst, u.size, r)

		case uNeg:
			mc.writeReg(u.dst, u.size, -mc.regs[u.dst])

		case uCqo:
			if u.size == 4 {
				mc.writeReg(asm.RDX, 4, uint64(int64(int32(mc.regs[asm.RAX]))>>31))
			} else {
				mc.writeReg(asm.RDX, 8, uint64(int64(mc.regs[asm.RAX])>>63))
			}

		case uIDiv:
			mc.idiv(u.in)

		case uCmpRR, uCmpRI, uCmpLoad:
			mc.flagKind = flagsLazySub
			mc.flagA = mc.regs[u.dst]
			switch u.kind {
			case uCmpRR:
				mc.flagB = mc.regs[u.src]
			case uCmpRI:
				mc.flagB = uint64(u.imm)
			default:
				mc.flagB = mc.fastLoad(mc.ea(u), u.size)
			}
			mc.flagSize = u.size

		case uTestRR:
			mc.flagKind = flagsLazyTest
			mc.flagA = mc.regs[u.dst] & mc.regs[u.src]
			mc.flagSize = u.size
		case uTestRI:
			mc.flagKind = flagsLazyTest
			mc.flagA = mc.regs[u.dst] & uint64(u.imm)
			mc.flagSize = u.size

		case uFuseCmpRR, uFuseCmpRI, uFuseTestRR, uFuseTestRI:
			// Superinstruction: the compare half executes at this pc, the
			// branch half replays the reference jcc at pc+1 (its own
			// steps++, timeout check, and pc) so counters and trap points
			// match an unfused execution exactly.
			switch u.kind {
			case uFuseCmpRR:
				mc.flagKind = flagsLazySub
				mc.flagA = mc.regs[u.dst]
				mc.flagB = mc.regs[u.src]
			case uFuseCmpRI:
				mc.flagKind = flagsLazySub
				mc.flagA = mc.regs[u.dst]
				mc.flagB = uint64(u.imm)
			case uFuseTestRR:
				mc.flagKind = flagsLazyTest
				mc.flagA = mc.regs[u.dst] & mc.regs[u.src]
			default:
				mc.flagKind = flagsLazyTest
				mc.flagA = mc.regs[u.dst] & uint64(u.imm)
			}
			mc.flagSize = u.size
			mc.maybeInject(u.in)
			mc.pc++
			mc.steps++
			if mc.steps > mc.stepLimit && mc.stepEvent() {
				return
			}
			if mc.evalCond(u.cond) {
				mc.pc = u.target
			} else {
				mc.pc++
			}
			continue

		case uSet:
			var v uint64
			if mc.evalCond(u.cond) {
				v = 1
			}
			mc.writeReg(u.dst, 1, v)

		case uSSERR, uSSELoad:
			a := math.Float64frombits(mc.regs[u.dst])
			var bb uint64
			if u.kind == uSSERR {
				bb = mc.regs[u.src]
			} else {
				bb = mc.fastLoad(mc.ea(u), 8)
			}
			b := math.Float64frombits(bb)
			var r float64
			switch u.op {
			case asm.OpAddSD:
				r = a + b
			case asm.OpSubSD:
				r = a - b
			case asm.OpMulSD:
				r = a * b
			default:
				r = a / b
			}
			mc.regs[u.dst] = math.Float64bits(r)

		case uUComiRR, uUComiLoad:
			a := math.Float64frombits(mc.regs[u.dst])
			var bb uint64
			if u.kind == uUComiRR {
				bb = mc.regs[u.src]
			} else {
				bb = mc.fastLoad(mc.ea(u), 8)
			}
			// ucomisd flags stay concrete: only three flag patterns, not
			// worth a lazy kind.
			mc.regs[asm.RFLAGS] = ucomisdFlags(a, math.Float64frombits(bb))
			mc.flagKind = flagsConcrete

		case uJmp:
			mc.pc = u.target
			continue

		case uJcc:
			if mc.evalCond(u.cond) {
				mc.pc = u.target
				continue
			}

		case uCall:
			mc.fastPush(uint64(CodeBase + instrSlot*int64(mc.pc+1)))
			mc.maybeInject(u.in) // destination: RSP
			mc.pc = u.target
			continue

		case uCallExt:
			mc.callRuntime(u.ext)
			mc.maybeInject(u.in) // destination: RSP
			mc.pc++
			continue

		case uRet:
			addr := mc.fastPop()
			// ret's injectable destination is RIP: the fault lands on the
			// popped return address (mirrors exec's inline handling).
			mc.inject++
			if mc.inject == mc.injectAt {
				mc.injected = true
				mc.injStatic = mc.pc
				mc.injOrigin = u.in.origin
				mc.injCheck = u.in.checker
				addr ^= 1 << (mc.injectBit % 64)
			}
			if addr == mc.sentinelRA() {
				return
			}
			if addr < CodeBase || (addr-CodeBase)%instrSlot != 0 {
				mc.trap(sim.TrapBadJump)
			}
			idx := int32((addr - CodeBase) / instrSlot)
			if idx < 0 || idx >= n {
				mc.trap(sim.TrapBadJump)
			}
			mc.pc = idx
			continue

		case uPushR:
			mc.fastPush(mc.regs[u.src])
		case uPushI:
			mc.fastPush(uint64(u.imm))
		case uPop:
			mc.writeReg(u.dst, 8, mc.fastPop())

		default:
			mc.slowStep(u.in)
		}

		if u.in.hasDest {
			mc.maybeInject(u.in)
		}
		mc.pc++
	}
}

// slowStep executes one non-control-flow instruction through the
// reference operand path (readOp/writeDst). It handles every operand
// shape the predecoder leaves generic — memory-destination ALU ops, the
// cvt ops, push/pop with memory operands. Flag writers must leave
// concrete state, since the caller bypassed the lazy recording.
func (mc *Machine) slowStep(in *minstr) {
	mc.slowSteps++
	switch in.op {
	case asm.OpMov:
		mc.writeDst(&in.dst, in.size, mc.readOp(&in.src, in.size))

	case asm.OpMovSX:
		v := mc.readOp(&in.src, in.size)
		mc.writeReg(in.dst.reg, 8, uint64(signExtend(v, in.size)))

	case asm.OpMovZX:
		mc.writeReg(in.dst.reg, 8, mc.readOp(&in.src, in.size))

	case asm.OpAdd, asm.OpSub, asm.OpIMul, asm.OpAnd, asm.OpOr, asm.OpXor:
		a := mc.readOp(&in.dst, in.size)
		b := mc.readOp(&in.src, in.size)
		var r uint64
		switch in.op {
		case asm.OpAdd:
			r = a + b
		case asm.OpSub:
			r = a - b
		case asm.OpIMul:
			r = a * b
		case asm.OpAnd:
			r = a & b
		case asm.OpOr:
			r = a | b
		default:
			r = a ^ b
		}
		mc.writeDst(&in.dst, in.size, r)

	case asm.OpShl, asm.OpSar, asm.OpShr:
		a := mc.readOp(&in.dst, in.size)
		c := mc.readOp(&in.src, 8)
		if in.size == 8 {
			c &= 63
		} else {
			c &= 31
		}
		var r uint64
		switch in.op {
		case asm.OpShl:
			r = a << c
		case asm.OpSar:
			r = uint64(signExtend(a, in.size) >> c)
		default:
			r = a >> c
		}
		mc.writeDst(&in.dst, in.size, r)

	case asm.OpNeg:
		mc.writeDst(&in.dst, in.size, -mc.readOp(&in.dst, in.size))

	case asm.OpCmp:
		a := mc.readOp(&in.dst, in.size)
		b := mc.readOp(&in.src, in.size)
		mc.regs[asm.RFLAGS] = setSubFlags(a, b, in.size)
		mc.flagKind = flagsConcrete

	case asm.OpTest:
		a := mc.readOp(&in.dst, in.size)
		b := mc.readOp(&in.src, in.size)
		mc.regs[asm.RFLAGS] = setLogicFlags(a&b, in.size)
		mc.flagKind = flagsConcrete

	case asm.OpMovSD:
		mc.writeDst(&in.dst, 8, mc.readOp(&in.src, 8))

	case asm.OpAddSD, asm.OpSubSD, asm.OpMulSD, asm.OpDivSD:
		a := math.Float64frombits(mc.regs[in.dst.reg])
		b := math.Float64frombits(mc.readOp(&in.src, 8))
		var r float64
		switch in.op {
		case asm.OpAddSD:
			r = a + b
		case asm.OpSubSD:
			r = a - b
		case asm.OpMulSD:
			r = a * b
		default:
			r = a / b
		}
		mc.regs[in.dst.reg] = math.Float64bits(r)

	case asm.OpUComiSD:
		a := math.Float64frombits(mc.regs[in.dst.reg])
		b := math.Float64frombits(mc.readOp(&in.src, 8))
		mc.regs[asm.RFLAGS] = ucomisdFlags(a, b)
		mc.flagKind = flagsConcrete

	case asm.OpCvtSI2SD:
		v := signExtend(mc.readOp(&in.src, in.size), in.size)
		mc.regs[in.dst.reg] = math.Float64bits(float64(v))

	case asm.OpCvtSD2SI:
		f := math.Float64frombits(mc.readOp(&in.src, 8))
		mc.writeReg(in.dst.reg, in.size, uint64(rt.FpToSI(int(in.size)*8, f)))

	case asm.OpPush:
		mc.push(mc.readOp(&in.src, 8))

	case asm.OpPop:
		mc.writeReg(in.dst.reg, 8, mc.pop())

	default:
		panic("machine: unknown opcode " + in.op.String())
	}
}
