package interp

import (
	"encoding/binary"
	"math"

	"flowery/internal/ir"
	"flowery/internal/rt"
)

// The interpreter's fast execution core. compile attaches a specialized
// closure (fastFn) to every straight-line instruction; runFast drives
// the same dispatch/frame machinery as run but executes those closures
// instead of re-dispatching on op and operand kind every step. Control
// flow (call/br/condbr/ret) stays in runFast's switch — it manipulates
// the loop state itself. Instrumented runs (profiling, def-use tracing,
// snapshot capture) and opts.Reference runs take run(), the semantic
// reference this core must match bit for bit.

// fastFn executes one straight-line instruction and returns its result
// (garbage for stores, which have no destination slot — the caller skips
// the commit when slot < 0).
type fastFn func(ip *Interp, fp int64, vals, args []uint64) uint64

// operand shape classes for specialization: slot and param index arrays
// directly; consts and globals are both compile-time literals.
const (
	shSlot = iota
	shParam
	shLit
)

func shape(o opnd) int {
	switch o.kind {
	case opndSlot:
		return shSlot
	case opndParam:
		return shParam
	default:
		return shLit
	}
}

// un1 builds a fastFn computing f over one operand, with the operand
// fetch specialized away.
func un1(a opnd, f func(ip *Interp, x uint64) uint64) fastFn {
	switch shape(a) {
	case shSlot:
		ai := a.idx
		return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return f(ip, vals[ai]) }
	case shParam:
		ai := a.idx
		return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return f(ip, args[ai]) }
	default:
		av := a.bits
		return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return f(ip, av) }
	}
}

// bin2 builds a fastFn computing f over two operands. All nine operand
// shape combinations get their own closure so the hot path is two array
// indexes plus one call.
func bin2(a, b opnd, f func(ip *Interp, x, y uint64) uint64) fastFn {
	ai, bi := a.idx, b.idx
	av, bv := a.bits, b.bits
	switch shape(a)*3 + shape(b) {
	case shSlot*3 + shSlot:
		return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return f(ip, vals[ai], vals[bi]) }
	case shSlot*3 + shParam:
		return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return f(ip, vals[ai], args[bi]) }
	case shSlot*3 + shLit:
		return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return f(ip, vals[ai], bv) }
	case shParam*3 + shSlot:
		return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return f(ip, args[ai], vals[bi]) }
	case shParam*3 + shParam:
		return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return f(ip, args[ai], args[bi]) }
	case shParam*3 + shLit:
		return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return f(ip, args[ai], bv) }
	case shLit*3 + shSlot:
		return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return f(ip, av, vals[bi]) }
	case shLit*3 + shParam:
		return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return f(ip, av, args[bi]) }
	default:
		return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return f(ip, av, bv) }
	}
}

// fastFused builds fully-fused closures (operand fetch, operation, and
// width normalization in one body, no inner indirect call) for the op ×
// operand-shape × type combinations that dominate execution. Returns nil
// when the combination is not worth a dedicated closure; fastCompile
// then falls back to the composed un1/bin2 form.
func fastFused(ci *cinstr) fastFn {
	switch ci.op {
	case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor:
		if ci.ty != ir.I64 && ci.ty != ir.I32 {
			return nil
		}
		a, b := ci.args[0], ci.args[1]
		op, wide := ci.op, ci.ty == ir.I64
		// Closures are written out per op and shape so the arithmetic
		// inlines; only I64 (no normalization) and I32 (sign-extend) are
		// fused.
		switch {
		case shape(a) == shSlot && shape(b) == shSlot:
			ai, bi := a.idx, b.idx
			if wide {
				switch op {
				case ir.OpAdd:
					return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return vals[ai] + vals[bi] }
				case ir.OpSub:
					return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return vals[ai] - vals[bi] }
				case ir.OpAnd:
					return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return vals[ai] & vals[bi] }
				case ir.OpOr:
					return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return vals[ai] | vals[bi] }
				default:
					return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return vals[ai] ^ vals[bi] }
				}
			}
			switch op {
			case ir.OpAdd:
				return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
					return uint64(int64(int32(vals[ai] + vals[bi])))
				}
			case ir.OpSub:
				return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
					return uint64(int64(int32(vals[ai] - vals[bi])))
				}
			case ir.OpAnd:
				return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
					return uint64(int64(int32(vals[ai] & vals[bi])))
				}
			case ir.OpOr:
				return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
					return uint64(int64(int32(vals[ai] | vals[bi])))
				}
			default:
				return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
					return uint64(int64(int32(vals[ai] ^ vals[bi])))
				}
			}
		case shape(a) == shSlot && shape(b) == shLit:
			ai, bv := a.idx, b.bits
			if wide {
				switch op {
				case ir.OpAdd:
					return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return vals[ai] + bv }
				case ir.OpSub:
					return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return vals[ai] - bv }
				case ir.OpAnd:
					return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return vals[ai] & bv }
				case ir.OpOr:
					return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return vals[ai] | bv }
				default:
					return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return vals[ai] ^ bv }
				}
			}
			switch op {
			case ir.OpAdd:
				return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
					return uint64(int64(int32(vals[ai] + bv)))
				}
			case ir.OpSub:
				return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
					return uint64(int64(int32(vals[ai] - bv)))
				}
			case ir.OpAnd:
				return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
					return uint64(int64(int32(vals[ai] & bv)))
				}
			case ir.OpOr:
				return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
					return uint64(int64(int32(vals[ai] | bv)))
				}
			default:
				return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
					return uint64(int64(int32(vals[ai] ^ bv)))
				}
			}
		}
		return nil

	case ir.OpICmp:
		a, b := ci.args[0], ci.args[1]
		if shape(a) != shSlot {
			return nil
		}
		ai := a.idx
		pred, sty := ci.pred, ci.srcTy
		// Canonical values are sign-extended, so signed compares and
		// equality work on the raw uint64s at every width; unsigned
		// compares do too at I64/Ptr (zero-extension is the identity).
		if pred == ir.PredULT || pred == ir.PredULE || pred == ir.PredUGT || pred == ir.PredUGE {
			if sty != ir.I64 && sty != ir.Ptr {
				return nil
			}
		}
		switch pred {
		case ir.PredEQ, ir.PredNE, ir.PredSLT, ir.PredSLE, ir.PredSGT,
			ir.PredSGE, ir.PredULT, ir.PredULE, ir.PredUGT, ir.PredUGE:
		default:
			return nil
		}
		// The predicate switch lives inside the closure on a captured
		// constant — perfectly predicted, and one call cheaper than
		// composing a comparator closure.
		switch shape(b) {
		case shSlot:
			bi := b.idx
			return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
				x, y := vals[ai], vals[bi]
				var c bool
				switch pred {
				case ir.PredEQ:
					c = x == y
				case ir.PredNE:
					c = x != y
				case ir.PredSLT:
					c = int64(x) < int64(y)
				case ir.PredSLE:
					c = int64(x) <= int64(y)
				case ir.PredSGT:
					c = int64(x) > int64(y)
				case ir.PredSGE:
					c = int64(x) >= int64(y)
				case ir.PredULT:
					c = x < y
				case ir.PredULE:
					c = x <= y
				case ir.PredUGT:
					c = x > y
				default:
					c = x >= y
				}
				if c {
					return 1
				}
				return 0
			}
		case shLit:
			bv := b.bits
			return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
				x := vals[ai]
				var c bool
				switch pred {
				case ir.PredEQ:
					c = x == bv
				case ir.PredNE:
					c = x != bv
				case ir.PredSLT:
					c = int64(x) < int64(bv)
				case ir.PredSLE:
					c = int64(x) <= int64(bv)
				case ir.PredSGT:
					c = int64(x) > int64(bv)
				case ir.PredSGE:
					c = int64(x) >= int64(bv)
				case ir.PredULT:
					c = x < bv
				case ir.PredULE:
					c = x <= bv
				case ir.PredUGT:
					c = x > bv
				default:
					c = x >= bv
				}
				if c {
					return 1
				}
				return 0
			}
		}
		return nil

	case ir.OpGEP:
		a, b := ci.args[0], ci.args[1]
		scale := ci.aux
		if shape(a) == shSlot && shape(b) == shSlot {
			ai, bi := a.idx, b.idx
			return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
				return uint64(int64(vals[ai]) + int64(vals[bi])*scale)
			}
		}
		return nil

	case ir.OpLoad:
		if shape(ci.args[0]) != shSlot {
			return nil
		}
		ai := ci.args[0].idx
		size := ci.ty.Size()
		switch ci.ty {
		case ir.I64, ir.Ptr, ir.F64:
			return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
				return ip.fastLoadMem(int64(vals[ai]), size)
			}
		case ir.I32:
			return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
				return uint64(int64(int32(ip.fastLoadMem(int64(vals[ai]), size))))
			}
		case ir.I8:
			return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
				return uint64(int64(int8(ip.fastLoadMem(int64(vals[ai]), size))))
			}
		default: // I1
			return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
				return ip.fastLoadMem(int64(vals[ai]), size) & 1
			}
		}

	case ir.OpStore:
		v, a := ci.args[0], ci.args[1]
		if shape(a) != shSlot {
			return nil
		}
		addri := a.idx
		size := ci.srcTy.Size()
		switch shape(v) {
		case shSlot:
			vi := v.idx
			return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
				ip.fastStoreMem(int64(vals[addri]), size, vals[vi])
				return 0
			}
		case shLit:
			vv := v.bits
			return func(ip *Interp, fp int64, vals, args []uint64) uint64 {
				ip.fastStoreMem(int64(vals[addri]), size, vv)
				return 0
			}
		}
		return nil
	}
	return nil
}

// fastCompile builds the specialized closure for ci, or nil for the ops
// runFast dispatches itself (call, branches, ret). Each closure computes
// exactly what the corresponding case in run computes — the reference
// helpers (intBin, icmp, fpToSI, ...) are reused wherever the semantics
// have any subtlety.
func fastCompile(ci *cinstr) fastFn {
	if fn := fastFused(ci); fn != nil {
		return fn
	}
	switch ci.op {
	case ir.OpAlloca:
		off := ci.aux
		return func(ip *Interp, fp int64, vals, args []uint64) uint64 { return uint64(fp + off) }

	case ir.OpLoad:
		size := ci.ty.Size()
		if ci.ty.IsInt() {
			ty := ci.ty
			return un1(ci.args[0], func(ip *Interp, x uint64) uint64 {
				return ir.NormalizeInt(ty, ip.fastLoadMem(int64(x), size))
			})
		}
		return un1(ci.args[0], func(ip *Interp, x uint64) uint64 {
			return ip.fastLoadMem(int64(x), size)
		})

	case ir.OpStore:
		size := ci.srcTy.Size()
		// args: value, address. The result is unused (slot is -1).
		return bin2(ci.args[0], ci.args[1], func(ip *Interp, v, addr uint64) uint64 {
			ip.fastStoreMem(int64(addr), size, v)
			return 0
		})

	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpAShr, ir.OpLShr, ir.OpSDiv, ir.OpSRem:
		ty := ci.ty
		var f func(ip *Interp, x, y uint64) uint64
		switch ci.op {
		case ir.OpAdd:
			f = func(ip *Interp, x, y uint64) uint64 { return ir.NormalizeInt(ty, x+y) }
		case ir.OpSub:
			f = func(ip *Interp, x, y uint64) uint64 { return ir.NormalizeInt(ty, x-y) }
		case ir.OpMul:
			f = func(ip *Interp, x, y uint64) uint64 { return ir.NormalizeInt(ty, x*y) }
		case ir.OpAnd:
			f = func(ip *Interp, x, y uint64) uint64 { return x & y }
		case ir.OpOr:
			f = func(ip *Interp, x, y uint64) uint64 { return x | y }
		case ir.OpXor:
			f = func(ip *Interp, x, y uint64) uint64 { return x ^ y }
		case ir.OpShl:
			f = func(ip *Interp, x, y uint64) uint64 {
				return ir.NormalizeInt(ty, x<<shiftCount(ty, y))
			}
		case ir.OpAShr:
			f = func(ip *Interp, x, y uint64) uint64 {
				return ir.NormalizeInt(ty, uint64(int64(x)>>shiftCount(ty, y)))
			}
		case ir.OpLShr:
			f = func(ip *Interp, x, y uint64) uint64 {
				return ir.NormalizeInt(ty, zextBits(ty, x)>>shiftCount(ty, y))
			}
		default:
			// Division can trap; keep the reference implementation.
			op := ci.op
			f = func(ip *Interp, x, y uint64) uint64 { return ip.intBin(op, ty, x, y) }
		}
		return bin2(ci.args[0], ci.args[1], f)

	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		var f func(ip *Interp, x, y uint64) uint64
		switch ci.op {
		case ir.OpFAdd:
			f = func(ip *Interp, x, y uint64) uint64 {
				return math.Float64bits(math.Float64frombits(x) + math.Float64frombits(y))
			}
		case ir.OpFSub:
			f = func(ip *Interp, x, y uint64) uint64 {
				return math.Float64bits(math.Float64frombits(x) - math.Float64frombits(y))
			}
		case ir.OpFMul:
			f = func(ip *Interp, x, y uint64) uint64 {
				return math.Float64bits(math.Float64frombits(x) * math.Float64frombits(y))
			}
		default:
			f = func(ip *Interp, x, y uint64) uint64 {
				return math.Float64bits(math.Float64frombits(x) / math.Float64frombits(y))
			}
		}
		return bin2(ci.args[0], ci.args[1], f)

	case ir.OpICmp:
		pred, sty := ci.pred, ci.srcTy
		return bin2(ci.args[0], ci.args[1], func(ip *Interp, x, y uint64) uint64 {
			if icmp(pred, sty, x, y) {
				return 1
			}
			return 0
		})

	case ir.OpFCmp:
		pred := ci.pred
		return bin2(ci.args[0], ci.args[1], func(ip *Interp, x, y uint64) uint64 {
			if fcmp(pred, math.Float64frombits(x), math.Float64frombits(y)) {
				return 1
			}
			return 0
		})

	case ir.OpGEP:
		scale := ci.aux
		return bin2(ci.args[0], ci.args[1], func(ip *Interp, base, idx uint64) uint64 {
			return uint64(int64(base) + int64(idx)*scale)
		})

	case ir.OpTrunc:
		ty := ci.ty
		return un1(ci.args[0], func(ip *Interp, x uint64) uint64 { return ir.NormalizeInt(ty, x) })
	case ir.OpZExt:
		sty := ci.srcTy
		return un1(ci.args[0], func(ip *Interp, x uint64) uint64 { return zextBits(sty, x) })
	case ir.OpSExt:
		// Values are kept sign-extended canonically: pure copy.
		return un1(ci.args[0], func(ip *Interp, x uint64) uint64 { return x })
	case ir.OpSIToFP:
		return un1(ci.args[0], func(ip *Interp, x uint64) uint64 {
			return math.Float64bits(float64(int64(x)))
		})
	case ir.OpFPToSI:
		ty := ci.ty
		return un1(ci.args[0], func(ip *Interp, x uint64) uint64 {
			return fpToSI(ty, math.Float64frombits(x))
		})

	default:
		// OpCall, OpBr, OpCondBr, OpRet: runFast handles control flow.
		return nil
	}
}

// fastLoadMem/fastStoreMem are loadMem/storeMem with the byte loop
// replaced by little-endian word access; mapped() bounds the slice so the
// accesses cannot overrun. fastStoreMem keeps the minTouch low-water mark
// but not the snapshot dirty range — snapCapture runs never use this core.
func (ip *Interp) fastLoadMem(addr, size int64) uint64 {
	if !ip.mapped(addr, size) {
		ip.trap(TrapBadAddress)
	}
	switch size {
	case 8:
		return binary.LittleEndian.Uint64(ip.mem[addr:])
	case 4:
		return uint64(binary.LittleEndian.Uint32(ip.mem[addr:]))
	default:
		return uint64(ip.mem[addr])
	}
}

func (ip *Interp) fastStoreMem(addr, size int64, v uint64) {
	if !ip.mapped(addr, size) {
		ip.trap(TrapBadAddress)
	}
	switch size {
	case 8:
		binary.LittleEndian.PutUint64(ip.mem[addr:], v)
	case 4:
		binary.LittleEndian.PutUint32(ip.mem[addr:], uint32(v))
	default:
		ip.mem[addr] = byte(v)
	}
	if addr >= ir.StackLimit && addr < ip.minTouch {
		ip.minTouch = addr
	}
}

// runFast is run() with the instrumentation hooks removed (the loop
// selection in finish guarantees they are off) and the per-instruction
// dispatch replaced by the compiled closures. Counters, injection
// points, trap points, and frame handling are identical. It also stops
// a faulty run that reconverges with the golden run: the one
// per-instruction bound, stepLimit, folds the timeout and the next
// golden checkpoint into a single compare whose cold side is stepEvent.
func (ip *Interp) runFast() uint64 {
	var retVal uint64
	returning := false
dispatch:
	for {
		f := &ip.frames[len(ip.frames)-1]
		cf := f.cf
		vals := f.vals
		args := f.args[:]
		fp := f.fp
		bi := f.bi
		i := f.ii

		if returning {
			// Deliver the callee's return value to the call instruction
			// this frame was suspended at, then resume past it.
			returning = false
			ci := &cf.blocks[bi].instrs[i]
			if ci.slot >= 0 {
				res := retVal
				ip.inject++
				if ip.inject == ip.injectAt {
					res = flipBit(ci.ty, res, ip.injectBit)
					ip.injected = true
					ip.injStatic = ci.gidx
				}
				vals[ci.slot] = res
			}
			i++
		}

	block:
		blk := &cf.blocks[bi]
		n := int32(len(blk.instrs))
		for i < n {
			ci := &blk.instrs[i]
			ip.steps++
			if ip.steps > ip.stepLimit && ip.stepEvent(bi, i) {
				return 0 // finish reports the golden return value
			}

			if fn := ci.fn; fn != nil {
				res := fn(ip, fp, vals, args)
				if ci.slot < 0 {
					// Stores: no destination, no injection site.
					i++
					continue
				}
				ip.inject++
				if ip.inject == ip.injectAt {
					res = flipBit(ci.ty, res, ip.injectBit)
					ip.injected = true
					ip.injStatic = ci.gidx
				}
				vals[ci.slot] = res
				i++
				continue
			}

			switch ci.op {
			case ir.OpCall:
				var ab [maxCallArgs]uint64
				for ai := range ci.args {
					ab[ai] = ip.eval(ci.args[ai], vals, args)
				}
				callee := ci.callee
				if callee.rtFunc != rt.FuncNone {
					r := ip.callRuntime(callee.rtFunc, ab[:len(ci.args)])
					if ci.slot >= 0 {
						ip.inject++
						if ip.inject == ip.injectAt {
							r = flipBit(ci.ty, r, ip.injectBit)
							ip.injected = true
							ip.injStatic = ci.gidx
						}
						vals[ci.slot] = r
					}
					i++
					continue
				}
				// Suspend at this call; the return is delivered at the
				// top of the dispatch loop.
				f.bi, f.ii = bi, i
				ip.pushFrame(callee, ab[:len(ci.args)])
				continue dispatch

			case ir.OpBr:
				bi = ci.blocks[0]
				i = 0
				goto block

			case ir.OpCondBr:
				c := ip.eval(ci.args[0], vals, args)
				if c&1 != 0 {
					bi = ci.blocks[0]
				} else {
					bi = ci.blocks[1]
				}
				i = 0
				goto block

			case ir.OpRet:
				var r uint64
				if len(ci.args) == 1 {
					r = ip.eval(ci.args[0], vals, args)
				}
				ip.popFrame()
				if len(ip.frames) == 0 {
					return r
				}
				retVal = r
				returning = true
				continue dispatch

			default:
				panic("interp: unknown opcode " + ci.op.String())
			}
		}
		panic("interp: block without terminator")
	}
}
