package machine

import (
	"bytes"
	"sort"

	"flowery/internal/asm"
	"flowery/internal/ir"
	"flowery/internal/sim"
)

// Checkpoint/fast-forward support, mirroring the IR interpreter's (see
// internal/interp/snapshot.go for the determinism argument). The machine
// state is already explicit — registers, pc, output, counters — so a
// snapshot is that state plus the dirty memory regions: the stack above
// the minTouch low-water mark and the dirty range of the data segment.

var _ sim.SnapshotEngine = (*Machine)(nil)

// mSnapshot is one checkpoint of a golden run.
type mSnapshot struct {
	index    int64 // injectable-instruction counter at capture
	steps    int64 // dynamic instructions executed up to here
	outLen   int   // golden output bytes emitted so far
	pc       int32
	minTouch int64
	dataLo   int64
	dataHi   int64
	regs     [asm.NumRegs]uint64
	stack    []byte // mem[minTouch:StackTop]
	data     []byte // mem[dataLo:dataHi]
}

// BuildSnapshots runs the golden execution once, capturing a checkpoint
// roughly every interval injectable instructions. It returns the golden
// result; snapshots are only kept if the run completed normally. It
// implements sim.SnapshotEngine.
func (mc *Machine) BuildSnapshots(interval int64, opts sim.Options) sim.Result {
	mc.DropSnapshots()
	if interval <= 0 {
		interval = 1
	}
	mc.snapInterval = interval
	mc.snapCapture = true
	res := mc.Run(sim.Fault{}, opts)
	mc.snapCapture = false
	if res.Status != sim.StatusOK {
		mc.DropSnapshots()
		return res
	}
	mc.golden = res
	mc.golden.Output = append([]byte(nil), res.Output...)
	return res
}

// DropSnapshots releases all checkpoint storage.
func (mc *Machine) DropSnapshots() {
	mc.snaps = nil
	mc.golden = sim.Result{}
}

// RunFrom is Run accelerated by checkpoint restore: it fast-forwards to
// the densest snapshot below the fault's injection point and executes
// from there. The returned result is bit-identical to Run's; skipped
// reports how many dynamic instructions the run did not execute — the
// restored prefix plus, for a run that converged with the golden run,
// the golden tail after the meeting checkpoint.
func (mc *Machine) RunFrom(fault sim.Fault, opts sim.Options) (res sim.Result, skipped int64) {
	s := mc.bestSnapshot(fault.TargetIndex)
	if s == nil {
		res = mc.Run(fault, opts)
		return res, mc.convTail
	}
	mc.restore(s)
	mc.maxSteps = opts.MaxSteps
	if mc.maxSteps <= 0 {
		mc.maxSteps = sim.DefaultMaxSteps
	}
	mc.injectAt = fault.TargetIndex
	mc.injectBit = fault.Bit
	mc.refCore = opts.Reference
	mc.setMetrics(opts.Metrics)
	res = mc.finish()
	return res, s.steps + mc.convTail
}

// bestSnapshot returns the snapshot with the largest index strictly below
// target (the fault fires when the injectable counter reaches target), or
// nil.
func (mc *Machine) bestSnapshot(target int64) *mSnapshot {
	if target <= 0 {
		return nil
	}
	lo, hi := 0, len(mc.snaps)
	for lo < hi {
		mid := (lo + hi) / 2
		if mc.snaps[mid].index < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	return &mc.snaps[lo-1]
}

// captureSnapshot records the current state; called from the exec loop at
// an instruction boundary during BuildSnapshots' golden run.
func (mc *Machine) captureSnapshot() {
	s := mSnapshot{
		index:    mc.inject,
		steps:    mc.steps,
		outLen:   len(mc.out),
		pc:       mc.pc,
		minTouch: mc.minTouch,
		dataLo:   mc.dataLo,
		dataHi:   mc.dataHi,
		regs:     mc.regs,
		stack:    append([]byte(nil), mc.mem[mc.minTouch:ir.StackTop]...),
	}
	if s.dataLo < s.dataHi {
		s.data = append([]byte(nil), mc.mem[s.dataLo:s.dataHi]...)
	}
	mc.snaps = append(mc.snaps, s)
	mc.nextSnapAt = mc.inject + mc.snapInterval
}

// restore rebuilds the state captured in s, replacing whatever the
// previous run left behind. Untouched memory is zero in both the golden
// run (fresh reset) and here (explicitly re-zeroed), so states match bit
// for bit.
func (mc *Machine) restore(s *mSnapshot) {
	// Data segment: rebuild the initial image, overlay the dirty bytes.
	copy(mc.mem[ir.GlobalBase:mc.dataEnd], mc.dataInit)
	if s.dataLo < s.dataHi {
		copy(mc.mem[s.dataLo:s.dataHi], s.data)
	}
	// Stack: zero the previous run's dirt, then lay down the snapshot.
	if mc.minTouch < ir.StackTop {
		zero(mc.mem[mc.minTouch:ir.StackTop])
	}
	copy(mc.mem[s.minTouch:ir.StackTop], s.stack)
	mc.minTouch = s.minTouch

	mc.regs = s.regs
	mc.pc = s.pc
	mc.out = append(mc.out[:0], mc.golden.Output[:s.outLen]...)
	mc.steps = s.steps
	mc.inject = s.index
	mc.injected = false
	mc.injStatic = -1
	mc.injOrigin = asm.OriginNone
	mc.injCheck = false
	// Snapshots are captured on the reference loop, where regs[RFLAGS] is
	// always architectural — the restored flag state is concrete.
	mc.flagKind = flagsConcrete
}

// Golden convergence. A faulty run whose complete state equals a golden
// checkpoint's at the checkpoint's dynamic step executes the golden
// run's suffix from there, instruction for instruction, so its Result
// is the golden one apart from the Injected* fields. The fast core
// therefore compares its state at each checkpoint past the injection
// point and stops at the first match. The compare is total — pc,
// injectable counter, registers, output, stack and data segment — never
// a digest. The reference loop never converges: it stays the
// independent oracle the fast core is diffed against.

// armConvergence points stepLimit at the first checkpoint at or past the
// injection point (before it the fault has not fired, and the state
// trivially matches). Fault-free runs, runs without checkpoints, and
// step budgets the golden run itself would exceed keep stepLimit at
// maxSteps: a converged run reports the golden length, which must be a
// length the scratch run could reach.
func (mc *Machine) armConvergence() {
	mc.convAt = len(mc.snaps)
	if mc.injectAt > 0 && mc.golden.DynInstrs <= mc.maxSteps {
		mc.convAt = sort.Search(len(mc.snaps), func(i int) bool { return mc.snaps[i].index >= mc.injectAt })
	}
	mc.setStepLimit()
}

// setStepLimit sets stepLimit to min(maxSteps, checkpoint convAt's steps).
func (mc *Machine) setStepLimit() {
	mc.stepLimit = mc.maxSteps
	if mc.convAt < len(mc.snaps) && mc.snaps[mc.convAt].steps < mc.maxSteps {
		mc.stepLimit = mc.snaps[mc.convAt].steps
	}
}

// stepEvent is the fast core's cold path, taken when steps passes
// stepLimit: either the run is out of budget (a timeout trap) or it is
// about to execute the instruction at which checkpoint convAt was taken.
// It reports whether the run converged; on a mismatch it arms the next
// checkpoint.
func (mc *Machine) stepEvent() bool {
	if mc.steps > mc.maxSteps {
		mc.trap(sim.TrapTimeout)
	}
	s := &mc.snaps[mc.convAt]
	if mc.sameState(s) {
		mc.steps = s.steps // the counted instruction does not execute
		mc.convTail = mc.golden.DynInstrs - s.steps
		return true
	}
	mc.convAt++
	mc.setStepLimit()
	return false
}

// sameState reports whether the machine state at the current instruction
// boundary equals checkpoint s. Lazy flags compare as their
// architectural value; memory below either run's stack low-water mark is
// zero in both.
func (mc *Machine) sameState(s *mSnapshot) bool {
	regs := mc.regs
	regs[asm.RFLAGS] = mc.liveFlags()
	if mc.pc != s.pc || mc.inject != s.index || regs != s.regs ||
		!bytes.Equal(mc.out, mc.golden.Output[:s.outLen]) {
		return false
	}
	lo := min(mc.minTouch, s.minTouch)
	return allZero(mc.mem[lo:s.minTouch]) &&
		bytes.Equal(mc.mem[s.minTouch:ir.StackTop], s.stack) &&
		sameData(mc.mem[ir.GlobalBase:mc.dataEnd], mc.dataInit, s.dataLo-ir.GlobalBase, s.dataHi-ir.GlobalBase, s.data)
}

// sameData reports whether seg equals the initial image init overlaid
// with dirty at [lo, hi) (no overlay when lo >= hi).
func sameData(seg, init []byte, lo, hi int64, dirty []byte) bool {
	if lo >= hi {
		return bytes.Equal(seg, init)
	}
	return bytes.Equal(seg[:lo], init[:lo]) && bytes.Equal(seg[lo:hi], dirty) && bytes.Equal(seg[hi:], init[hi:])
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
