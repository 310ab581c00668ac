package interp

import (
	"fmt"
	"math"
	"time"

	"flowery/internal/ir"
	"flowery/internal/rt"
	"flowery/internal/sim"
	"flowery/internal/telemetry"
)

// Interp executes one module. An Interp is not safe for concurrent use;
// campaign workers each own one (they are cheap after the first Run:
// memory is reset incrementally, not reallocated).
type Interp struct {
	mod     *ir.Module
	funcs   map[*ir.Function]*cfunc
	main    *cfunc
	gInstrs []*ir.Instr

	mem      []byte
	dataEnd  int64
	dataInit []byte // initial data-segment image (ir.Module.DataImage)

	// Run state.
	out       []byte
	steps     int64
	maxSteps  int64
	inject    int64 // injectable-instruction counter
	injectAt  int64
	injectBit int
	injected  bool
	injStatic int32
	profile   []int64
	profiling bool
	refCore   bool // pin this run to the reference loop (opts.Reference)
	retVal    uint64
	minTouch  int64 // lowest stack address used since last reset
	spVal     int64
	valPool   [][]uint64
	frames    []frame // explicit call stack (see exec.go)

	// Def-use tracing (see trace.go). tr is only set during RunTraced;
	// trFrames shadows frames with def handles.
	tr       sim.Tracer
	trFrames []traceFrame

	// Snapshot state (see snapshot.go). snapCapture is only set during
	// BuildSnapshots' golden run; dataLo/dataHi track the dirty region of
	// the data segment during that run so checkpoints copy kilobytes, not
	// the full memory image.
	snapCapture  bool
	snapInterval int64
	nextSnapAt   int64
	dataLo       int64
	dataHi       int64
	snaps        []snapshot
	golden       Result

	// Golden convergence (see snapshot.go). stepLimit is the fast core's
	// one per-instruction bound: min(maxSteps, steps of checkpoint
	// convAt, the next one a faulty run is compared against). convTail
	// counts the golden instructions a converged run did not execute (0
	// otherwise).
	stepLimit int64
	convAt    int
	convTail  int64

	// Run-boundary telemetry (see telemetry.EngineMetrics). met is the
	// cached handle bundle for metReg; flushed once per run in finish.
	met    *telemetry.EngineMetrics
	metReg *telemetry.Registry
}

// setMetrics rebinds the run-boundary flush target. Handles are
// resolved only when the registry changes, so steady-state runs pay a
// single pointer compare here.
func (ip *Interp) setMetrics(r *telemetry.Registry) {
	if r != ip.metReg {
		ip.metReg = r
		ip.met = telemetry.NewEngineMetrics(r, "ir")
	}
}

// trapPanic carries a trap out of the execution loop.
type trapPanic struct{ trap Trap }

// detectedPanic signals check_fail.
type detectedPanic struct{}

// New prepares an interpreter for the module. It assigns global
// addresses (idempotent) and compiles every function. The module must
// have passed Verify.
func New(m *ir.Module) *Interp {
	end := m.AssignAddresses()
	if end > ir.StackLimit {
		panic(fmt.Sprintf("interp: globals (%d bytes) overflow the data segment", end-ir.GlobalBase))
	}
	funcs, gInstrs := compile(m)
	mainF := m.Func("main")
	if mainF == nil {
		panic("interp: module has no main")
	}
	ip := &Interp{
		mod:      m,
		funcs:    funcs,
		main:     funcs[mainF],
		gInstrs:  gInstrs,
		mem:      make([]byte, ir.MemSize),
		dataEnd:  end,
		dataInit: m.DataImage(),
		minTouch: ir.StackTop,
	}
	return ip
}

// Module returns the module being executed.
func (ip *Interp) Module() *ir.Module { return ip.mod }

// StaticInstrs returns the module's instructions in compile order; index
// i corresponds to ProfileCounts()[i].
func (ip *Interp) StaticInstrs() []*ir.Instr { return ip.gInstrs }

// ProfileCounts returns per-static-instruction execution counts from the
// most recent profiled run (nil if Profile was not enabled).
func (ip *Interp) ProfileCounts() []int64 { return ip.profile }

// Run executes main once, optionally injecting a fault.
func (ip *Interp) Run(fault Fault, opts Options) Result {
	ip.reset()
	ip.maxSteps = opts.MaxSteps
	if ip.maxSteps <= 0 {
		ip.maxSteps = DefaultMaxSteps
	}
	ip.injectAt = fault.TargetIndex
	ip.injectBit = fault.Bit
	ip.profiling = opts.Profile
	if opts.Profile {
		ip.profile = make([]int64, len(ip.gInstrs))
	}
	ip.refCore = opts.Reference
	ip.setMetrics(opts.Metrics)

	return ip.finish(true)
}

// finish executes to completion (entering main when fresh; resuming the
// restored frame stack otherwise) and packages the outcome.
func (ip *Interp) finish(fresh bool) Result {
	var t0 time.Time
	if ip.met != nil {
		t0 = time.Now()
	}
	startSteps := ip.steps
	ip.convTail = 0
	usedFast := false
	res := Result{Status: StatusOK}
	func() {
		defer func() {
			switch p := recover().(type) {
			case nil:
			case trapPanic:
				res.Status = StatusTrap
				res.Trap = p.trap
			case detectedPanic:
				res.Status = StatusDetected
			default:
				panic(p)
			}
		}()
		if fresh {
			ip.pushFrame(ip.main, nil)
		}
		// Loop selection, once per run: any instrumentation (profiling,
		// def-use tracing, snapshot capture) or an explicit Reference
		// request pins the run to the reference loop.
		if ip.refCore || ip.snapCapture || ip.profiling || ip.tr != nil {
			ip.retVal = ip.run()
		} else {
			usedFast = true
			ip.armConvergence()
			ip.retVal = ip.runFast()
		}
	}()

	if ip.convTail > 0 {
		// The rest of the run would have replayed the golden run.
		res.Output = append([]byte(nil), ip.golden.Output...)
		res.RetVal = ip.golden.RetVal
		res.DynInstrs = ip.golden.DynInstrs
		res.InjectableInstrs = ip.golden.InjectableInstrs
	} else {
		res.Output = append([]byte(nil), ip.out...)
		res.RetVal = int64(ip.retVal)
		res.DynInstrs = ip.steps
		res.InjectableInstrs = ip.inject
	}
	res.Injected = ip.injected
	res.InjectedStatic = ip.injStatic
	if ip.met != nil {
		// The interpreter's fast core has no per-instruction fallback
		// (closures cover every op), so slowSteps is always 0 here.
		ip.met.FlushRun(usedFast, ip.steps-startSteps, 0, ip.convTail > 0, time.Since(t0))
	}
	return res
}

// reset restores memory to its initial image, touching only regions the
// previous run could have dirtied.
func (ip *Interp) reset() {
	// Data segment: the initial image.
	copy(ip.mem[ir.GlobalBase:ip.dataEnd], ip.dataInit)
	// Stack: zero from the lowest touched address.
	if ip.minTouch < ir.StackTop {
		zero(ip.mem[ip.minTouch:ir.StackTop])
	}
	ip.minTouch = ir.StackTop
	ip.spVal = ir.StackTop
	ip.out = ip.out[:0]
	ip.steps = 0
	ip.inject = 0
	ip.injected = false
	ip.injStatic = -1
	ip.profile = nil
	// A trapped run leaves its frames behind; recycle them here.
	for i := range ip.frames {
		ip.releaseVals(ip.frames[i].vals)
	}
	ip.frames = ip.frames[:0]
	ip.trFrames = ip.trFrames[:0]
	if ip.snapCapture {
		ip.snaps = ip.snaps[:0]
		ip.nextSnapAt = ip.snapInterval
		ip.dataLo, ip.dataHi = ip.dataEnd, ir.GlobalBase
	}
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

func (ip *Interp) trap(t Trap) {
	panic(trapPanic{trap: t})
}

// mapped reports whether [addr, addr+size) is a legal access.
func (ip *Interp) mapped(addr, size int64) bool {
	if addr >= ir.GlobalBase && addr+size <= ip.dataEnd {
		return true
	}
	return addr >= ir.StackLimit && addr+size <= ir.StackTop
}

func (ip *Interp) loadMem(addr, size int64) uint64 {
	if !ip.mapped(addr, size) {
		ip.trap(TrapBadAddress)
	}
	var v uint64
	for i := int64(0); i < size; i++ {
		v |= uint64(ip.mem[addr+i]) << (8 * i)
	}
	return v
}

func (ip *Interp) storeMem(addr, size int64, v uint64) {
	if !ip.mapped(addr, size) {
		ip.trap(TrapBadAddress)
	}
	for i := int64(0); i < size; i++ {
		ip.mem[addr+i] = byte(v >> (8 * i))
	}
	if addr >= ir.StackLimit {
		if addr < ip.minTouch {
			ip.minTouch = addr
		}
	} else if ip.snapCapture {
		// Data-segment dirty range, tracked only while building
		// checkpoints (the segment below StackLimit is globals only).
		if addr < ip.dataLo {
			ip.dataLo = addr
		}
		if end := addr + size; end > ip.dataHi {
			ip.dataHi = end
		}
	}
}

// frameVals returns a value array of at least n slots, reusing pooled
// storage across calls.
func (ip *Interp) frameVals(n int32) []uint64 {
	if l := len(ip.valPool); l > 0 {
		v := ip.valPool[l-1]
		ip.valPool = ip.valPool[:l-1]
		if int32(cap(v)) >= n {
			return v[:n]
		}
	}
	return make([]uint64, n)
}

func (ip *Interp) releaseVals(v []uint64) {
	if len(ip.valPool) < 64 {
		ip.valPool = append(ip.valPool, v)
	}
}

// framePush carves a frame from the software-managed stack; the frame
// base is derived from depth-ordered allocation below the previous frame.
func (ip *Interp) framePush(size int64) int64 {
	newSP := ip.sp() - size
	if newSP < ir.StackLimit {
		ip.trap(TrapStackOverflow)
	}
	ip.spSet(newSP)
	if newSP < ip.minTouch {
		ip.minTouch = newSP
	}
	return newSP
}

func (ip *Interp) framePop(size int64) {
	ip.spSet(ip.sp() + size)
}

// The stack pointer itself lives in a field; helpers keep the call sites
// symmetric with framePush/framePop.
func (ip *Interp) sp() int64 { return ip.spVal }

func (ip *Interp) spSet(v int64) { ip.spVal = v }

func (ip *Interp) callRuntime(f rt.Func, args []uint64) uint64 {
	switch f {
	case rt.FuncPrintI64:
		ip.out = rt.AppendI64(ip.out, int64(args[0]))
	case rt.FuncPrintF64:
		ip.out = rt.AppendF64(ip.out, math.Float64frombits(args[0]))
	case rt.FuncPrintChar:
		ip.out = rt.AppendChar(ip.out, byte(args[0]))
	case rt.FuncCheckFail:
		panic(detectedPanic{})
	case rt.FuncPow:
		return math.Float64bits(rt.Math2(f, math.Float64frombits(args[0]), math.Float64frombits(args[1])))
	default:
		return math.Float64bits(rt.Math1(f, math.Float64frombits(args[0])))
	}
	if len(ip.out) > rt.MaxOutput {
		ip.trap(TrapOutputOverflow)
	}
	return 0
}
