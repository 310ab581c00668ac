package interp

import (
	"bytes"
	"slices"
	"sort"

	"flowery/internal/ir"
	"flowery/internal/sim"
)

var _ sim.SnapshotEngine = (*Interp)(nil)

// Checkpoint/fast-forward support. During one golden run the interpreter
// captures periodic snapshots of its complete execution state, keyed by
// the injectable-instruction counter. A faulty run whose injection point
// lies past a snapshot restores it and executes forward from there. The
// execution before the injection point is bit-identical to the golden
// run by construction (same program, same inputs, no fault yet), so the
// restored run's observable Result is identical to a from-scratch run's;
// the output prefix is replayed from the recorded golden bytes.
//
// Snapshots copy only dirty state: the stack above the minTouch low-water
// mark and the dirty range of the data segment (dataLo/dataHi, tracked by
// storeMem during the capture run) — kilobytes, not the full ir.MemSize
// image.

// snapshot is one checkpoint of a golden run.
type snapshot struct {
	index    int64 // injectable-instruction counter at capture
	steps    int64 // dynamic instructions executed up to here
	outLen   int   // golden output bytes emitted so far
	spVal    int64
	minTouch int64
	dataLo   int64
	dataHi   int64
	stack    []byte // mem[minTouch:StackTop]
	data     []byte // mem[dataLo:dataHi]
	frames   []frameSnap
}

// frameSnap is a captured activation record.
type frameSnap struct {
	cf   *cfunc
	fp   int64
	bi   int32
	ii   int32
	vals []uint64
	args [maxCallArgs]uint64
}

// BuildSnapshots runs the golden execution once, capturing a checkpoint
// roughly every interval injectable instructions (granularity is one
// basic block). It returns the golden result; snapshots are only kept if
// the run completed normally. It implements sim.SnapshotEngine.
func (ip *Interp) BuildSnapshots(interval int64, opts Options) Result {
	ip.DropSnapshots()
	if interval <= 0 {
		interval = 1
	}
	ip.snapInterval = interval
	ip.snapCapture = true
	res := ip.Run(Fault{}, opts)
	ip.snapCapture = false
	if res.Status != StatusOK {
		ip.DropSnapshots()
		return res
	}
	ip.golden = res
	ip.golden.Output = append([]byte(nil), res.Output...)
	return res
}

// DropSnapshots releases all checkpoint storage.
func (ip *Interp) DropSnapshots() {
	ip.snaps = nil
	ip.golden = Result{}
}

// RunFrom is Run accelerated by checkpoint restore: it fast-forwards to
// the densest snapshot below the fault's injection point and executes
// from there. The returned result is bit-identical to Run's; skipped
// reports how many dynamic instructions the run did not execute — the
// restored prefix plus, for a run that converged with the golden run,
// the golden tail after the meeting checkpoint. Runs that cannot use a
// snapshot (no snapshots built, target before the first checkpoint,
// golden fault, or profiling requested) fall back to a from-scratch Run.
func (ip *Interp) RunFrom(fault Fault, opts Options) (res Result, skipped int64) {
	s := ip.bestSnapshot(fault.TargetIndex)
	if s == nil || opts.Profile {
		res = ip.Run(fault, opts)
		return res, ip.convTail
	}
	ip.restore(s)
	ip.maxSteps = opts.MaxSteps
	if ip.maxSteps <= 0 {
		ip.maxSteps = DefaultMaxSteps
	}
	ip.injectAt = fault.TargetIndex
	ip.injectBit = fault.Bit
	ip.profiling = false
	ip.refCore = opts.Reference
	ip.setMetrics(opts.Metrics)
	res = ip.finish(false)
	return res, s.steps + ip.convTail
}

// bestSnapshot returns the snapshot with the largest index strictly below
// target (the fault fires when the injectable counter reaches target, so
// a checkpoint at index target-1 is still usable), or nil.
func (ip *Interp) bestSnapshot(target int64) *snapshot {
	if target <= 0 {
		return nil
	}
	lo, hi := 0, len(ip.snaps)
	for lo < hi {
		mid := (lo + hi) / 2
		if ip.snaps[mid].index < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	return &ip.snaps[lo-1]
}

// captureSnapshot records the current state. Called from the dispatch
// loop during BuildSnapshots' golden run, where frame positions are exact.
func (ip *Interp) captureSnapshot() {
	s := snapshot{
		index:    ip.inject,
		steps:    ip.steps,
		outLen:   len(ip.out),
		spVal:    ip.spVal,
		minTouch: ip.minTouch,
		dataLo:   ip.dataLo,
		dataHi:   ip.dataHi,
		stack:    append([]byte(nil), ip.mem[ip.minTouch:ir.StackTop]...),
		frames:   make([]frameSnap, len(ip.frames)),
	}
	if s.dataLo < s.dataHi {
		s.data = append([]byte(nil), ip.mem[s.dataLo:s.dataHi]...)
	}
	for i := range ip.frames {
		f := &ip.frames[i]
		s.frames[i] = frameSnap{
			cf:   f.cf,
			fp:   f.fp,
			bi:   f.bi,
			ii:   f.ii,
			vals: append([]uint64(nil), f.vals...),
			args: f.args,
		}
	}
	ip.snaps = append(ip.snaps, s)
	ip.nextSnapAt = ip.inject + ip.snapInterval
}

// restore rebuilds the state captured in s, replacing whatever the
// previous run left behind. Untouched memory is zero in both the golden
// run (fresh reset) and here (explicitly re-zeroed), so states match
// bit for bit.
func (ip *Interp) restore(s *snapshot) {
	// Data segment: rebuild the initial image, overlay the dirty bytes.
	copy(ip.mem[ir.GlobalBase:ip.dataEnd], ip.dataInit)
	if s.dataLo < s.dataHi {
		copy(ip.mem[s.dataLo:s.dataHi], s.data)
	}
	// Stack: zero the previous run's dirt, then lay down the snapshot.
	if ip.minTouch < ir.StackTop {
		zero(ip.mem[ip.minTouch:ir.StackTop])
	}
	copy(ip.mem[s.minTouch:ir.StackTop], s.stack)
	ip.minTouch = s.minTouch
	ip.spVal = s.spVal

	// Frames: deep-copy (the resumed run mutates them; snapshots may be
	// restored many times).
	for i := range ip.frames {
		ip.releaseVals(ip.frames[i].vals)
	}
	ip.frames = ip.frames[:0]
	for i := range s.frames {
		sf := &s.frames[i]
		vals := ip.frameVals(int32(len(sf.vals)))
		copy(vals, sf.vals)
		ip.frames = append(ip.frames, frame{
			cf: sf.cf, fp: sf.fp, bi: sf.bi, ii: sf.ii,
			vals: vals, args: sf.args,
		})
	}

	ip.out = append(ip.out[:0], ip.golden.Output[:s.outLen]...)
	ip.steps = s.steps
	ip.inject = s.index
	ip.injected = false
	ip.injStatic = -1
	ip.profile = nil
}

// Golden convergence. A faulty run whose complete state equals a golden
// checkpoint's at the checkpoint's dynamic step executes the golden
// run's suffix from there, instruction for instruction, so its Result
// is the golden one apart from the Injected* fields. The fast core
// therefore compares its state at each checkpoint past the injection
// point and stops at the first match. The compare is total — frame
// stack with every value and argument slot, injectable counter, stack
// pointer, output, stack memory and data segment — never a digest. The
// reference loop never converges: it stays the independent oracle the
// fast core is diffed against.

// armConvergence points stepLimit at the first checkpoint at or past the
// injection point (before it the fault has not fired, and the state
// trivially matches). Fault-free runs, runs without checkpoints, and
// step budgets the golden run itself would exceed keep stepLimit at
// maxSteps: a converged run reports the golden length, which must be a
// length the scratch run could reach.
func (ip *Interp) armConvergence() {
	ip.convAt = len(ip.snaps)
	if ip.injectAt > 0 && ip.golden.DynInstrs <= ip.maxSteps {
		ip.convAt = sort.Search(len(ip.snaps), func(i int) bool { return ip.snaps[i].index >= ip.injectAt })
	}
	ip.setStepLimit()
}

// setStepLimit sets stepLimit to min(maxSteps, checkpoint convAt's steps).
func (ip *Interp) setStepLimit() {
	ip.stepLimit = ip.maxSteps
	if ip.convAt < len(ip.snaps) && ip.snaps[ip.convAt].steps < ip.maxSteps {
		ip.stepLimit = ip.snaps[ip.convAt].steps
	}
}

// stepEvent is the fast core's cold path, taken when steps passes
// stepLimit: either the run is out of budget (a timeout trap) or it is
// about to execute the instruction at which checkpoint convAt was taken,
// with the top frame at block bi, instruction i. It reports whether the
// run converged; on a mismatch it arms the next checkpoint.
func (ip *Interp) stepEvent(bi, i int32) bool {
	if ip.steps > ip.maxSteps {
		ip.trap(TrapTimeout)
	}
	s := &ip.snaps[ip.convAt]
	top := &ip.frames[len(ip.frames)-1]
	top.bi, top.ii = bi, i
	if ip.sameState(s) {
		ip.steps = s.steps // the counted instruction does not execute
		ip.convTail = ip.golden.DynInstrs - s.steps
		return true
	}
	ip.convAt++
	ip.setStepLimit()
	return false
}

// sameState reports whether the interpreter state at the current
// instruction boundary (top frame position synced) equals checkpoint s.
// Memory below either run's stack low-water mark is zero in both.
func (ip *Interp) sameState(s *snapshot) bool {
	if ip.inject != s.index || ip.spVal != s.spVal || len(ip.frames) != len(s.frames) ||
		!bytes.Equal(ip.out, ip.golden.Output[:s.outLen]) {
		return false
	}
	for k := range ip.frames {
		f, g := &ip.frames[k], &s.frames[k]
		if f.cf != g.cf || f.fp != g.fp || f.bi != g.bi || f.ii != g.ii ||
			f.args != g.args || !slices.Equal(f.vals, g.vals) {
			return false
		}
	}
	lo := min(ip.minTouch, s.minTouch)
	return allZero(ip.mem[lo:s.minTouch]) &&
		bytes.Equal(ip.mem[s.minTouch:ir.StackTop], s.stack) &&
		sameData(ip.mem[ir.GlobalBase:ip.dataEnd], ip.dataInit, s.dataLo-ir.GlobalBase, s.dataHi-ir.GlobalBase, s.data)
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
