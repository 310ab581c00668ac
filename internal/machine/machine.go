package machine

import (
	"fmt"
	"math"
	"time"

	"flowery/internal/asm"
	"flowery/internal/ir"
	"flowery/internal/sim"
	"flowery/internal/telemetry"
)

// Machine executes one linked program. Like the IR interpreter, a
// Machine is cheap to Run repeatedly (incremental memory reset) and not
// safe for concurrent use.
type Machine struct {
	mod      *ir.Module
	code     []minstr
	entry    map[string]int32
	srcInfo  []string
	mem      []byte
	dataEnd  int64
	dataInit []byte // initial data-segment image (ir.Module.DataImage)

	// Run state.
	regs      [asm.NumRegs]uint64
	pc        int32
	out       []byte
	steps     int64
	maxSteps  int64
	inject    int64
	injectAt  int64
	injectBit int
	injected  bool
	injStatic int32
	injOrigin asm.Origin
	injCheck  bool
	minTouch  int64

	// Snapshot state (see snapshot.go). snapCapture is only set during
	// BuildSnapshots' golden run; dataLo/dataHi track the dirty region of
	// the data segment during that run so checkpoints copy kilobytes, not
	// the full memory image.
	snapCapture  bool
	snapInterval int64
	nextSnapAt   int64
	dataLo       int64
	dataHi       int64
	snaps        []mSnapshot
	golden       sim.Result

	// Golden convergence (see snapshot.go). stepLimit is the fast core's
	// one per-instruction bound: min(maxSteps, steps of checkpoint
	// convAt, the next one a faulty run is compared against). convTail
	// counts the golden instructions a converged run did not execute (0
	// otherwise).
	stepLimit int64
	convAt    int
	convTail  int64

	// Optional execution trace: a ring buffer of recent pcs.
	traceRing []int32
	traceHead int

	// Def-use tracing (see trace.go). tr is only set during RunTraced;
	// regDef/regUnder/regDefBits track the live def handles layered in
	// each register.
	tr         sim.Tracer
	regDef     [asm.NumRegs]int64
	regUnder   [asm.NumRegs]int64
	regDefBits [asm.NumRegs]uint8

	// Predecoded fast core (see predecode.go / fastexec.go). uops is the
	// micro-op array parallel to code, built on the first uninstrumented
	// run; refCore pins a run to the reference loop. flagKind and the
	// flag operands are the lazy RFLAGS state — regs[RFLAGS] is stale
	// while flagKind is lazy and materializeFlags rebuilds it on demand.
	uops     []uop
	refCore  bool
	flagKind flagKind
	flagA    uint64
	flagB    uint64
	flagSize uint8

	// Run-boundary telemetry (see telemetry.EngineMetrics). met is the
	// cached handle bundle for metReg; slowSteps counts fast-core
	// instructions that fell back to the generic slowStep this run.
	met       *telemetry.EngineMetrics
	metReg    *telemetry.Registry
	slowSteps int64
}

// setMetrics rebinds the run-boundary flush target. Handles are
// resolved only when the registry changes, so steady-state runs pay a
// single pointer compare here.
func (mc *Machine) setMetrics(r *telemetry.Registry) {
	if r != mc.metReg {
		mc.metReg = r
		mc.met = telemetry.NewEngineMetrics(r, "asm")
	}
}

// EnableTrace records the last n executed instruction indices; DumpTrace
// renders them. Tracing slows execution and is meant for debugging.
func (mc *Machine) EnableTrace(n int) {
	mc.traceRing = make([]int32, n)
	for i := range mc.traceRing {
		mc.traceRing[i] = -1
	}
}

// DumpTrace returns the most recent executed instructions, oldest first.
func (mc *Machine) DumpTrace() []string {
	if mc.traceRing == nil {
		return nil
	}
	var out []string
	n := len(mc.traceRing)
	for i := 0; i < n; i++ {
		pc := mc.traceRing[(mc.traceHead+i)%n]
		if pc >= 0 {
			out = append(out, fmt.Sprintf("%5d  %s", pc, mc.PCInfo(pc)))
		}
	}
	return out
}

type trapPanic struct{ trap sim.Trap }

type detectedPanic struct{}

// New links the program against the module's memory image. The module
// must be the one the program was lowered from (the backend may have
// added a constant pool to it). Global addresses are assigned here if
// they have not been already.
func New(m *ir.Module, prog *asm.Program) (*Machine, error) {
	end := m.AssignAddresses()
	if end > ir.StackLimit {
		return nil, fmt.Errorf("machine: globals overflow the data segment")
	}
	code, entry, srcInfo, err := link(m, prog)
	if err != nil {
		return nil, err
	}
	if _, ok := entry["main"]; !ok {
		return nil, fmt.Errorf("machine: program has no main")
	}
	return &Machine{
		mod:      m,
		code:     code,
		entry:    entry,
		srcInfo:  srcInfo,
		mem:      make([]byte, ir.MemSize),
		dataEnd:  end,
		dataInit: m.DataImage(),
		minTouch: ir.StackTop,
	}, nil
}

// PCInfo describes the instruction at a code index (for diagnostics and
// the root-cause demo tooling).
func (mc *Machine) PCInfo(pc int32) string {
	if pc < 0 || int(pc) >= len(mc.srcInfo) {
		return fmt.Sprintf("pc %d out of range", pc)
	}
	return mc.srcInfo[pc]
}

// LastPC returns the program counter after the most recent Run (the trap
// location for runs that trapped).
func (mc *Machine) LastPC() int32 { return mc.pc }

// sentinelRA is the return address pushed below main; returning to it
// halts the program.
func (mc *Machine) sentinelRA() uint64 {
	return uint64(CodeBase + instrSlot*int64(len(mc.code)))
}

// Run executes main once, optionally injecting a fault. It implements
// sim.Engine.
func (mc *Machine) Run(fault sim.Fault, opts sim.Options) sim.Result {
	mc.reset()
	mc.maxSteps = opts.MaxSteps
	if mc.maxSteps <= 0 {
		mc.maxSteps = sim.DefaultMaxSteps
	}
	mc.injectAt = fault.TargetIndex
	mc.injectBit = fault.Bit
	mc.refCore = opts.Reference
	mc.setMetrics(opts.Metrics)
	return mc.finish()
}

// finish executes from the current machine state to completion and
// packages the outcome (shared by Run and the snapshot-restored RunFrom).
func (mc *Machine) finish() sim.Result {
	var t0 time.Time
	if mc.met != nil {
		t0 = time.Now()
	}
	startSteps := mc.steps
	mc.slowSteps = 0
	mc.convTail = 0
	usedFast := false
	res := sim.Result{Status: sim.StatusOK}
	func() {
		defer func() {
			switch p := recover().(type) {
			case nil:
			case trapPanic:
				res.Status = sim.StatusTrap
				res.Trap = p.trap
			case detectedPanic:
				res.Status = sim.StatusDetected
			default:
				panic(p)
			}
		}()
		if mc.fastOK() {
			usedFast = true
			if mc.uops == nil {
				mc.predecode()
			}
			mc.armConvergence()
			mc.execFast()
		} else {
			mc.exec()
		}
	}()

	if mc.convTail > 0 {
		// The rest of the run would have replayed the golden run.
		res.Output = append([]byte(nil), mc.golden.Output...)
		res.RetVal = mc.golden.RetVal
		res.DynInstrs = mc.golden.DynInstrs
		res.InjectableInstrs = mc.golden.InjectableInstrs
	} else {
		res.Output = append([]byte(nil), mc.out...)
		res.RetVal = int64(mc.regs[asm.RAX])
		res.DynInstrs = mc.steps
		res.InjectableInstrs = mc.inject
	}
	res.Injected = mc.injected
	res.InjectedStatic = mc.injStatic
	res.InjectedOrigin = mc.injOrigin
	res.InjectedChecker = mc.injCheck
	if mc.met != nil {
		mc.met.FlushRun(usedFast, mc.steps-startSteps, mc.slowSteps, mc.convTail > 0, time.Since(t0))
	}
	return res
}

func (mc *Machine) reset() {
	copy(mc.mem[ir.GlobalBase:mc.dataEnd], mc.dataInit)
	if mc.minTouch < ir.StackTop {
		zero(mc.mem[mc.minTouch:ir.StackTop])
	}
	mc.minTouch = ir.StackTop
	for i := range mc.regs {
		mc.regs[i] = 0
	}
	mc.out = mc.out[:0]
	mc.steps = 0
	mc.inject = 0
	mc.injected = false
	mc.injStatic = -1
	mc.injOrigin = asm.OriginNone
	mc.injCheck = false
	mc.flagKind = flagsConcrete
	if mc.snapCapture {
		mc.snaps = mc.snaps[:0]
		mc.nextSnapAt = mc.snapInterval
		mc.dataLo, mc.dataHi = mc.dataEnd, ir.GlobalBase
	}

	// Set up the initial stack: rsp just below the sentinel return
	// address.
	mc.regs[asm.RSP] = uint64(ir.StackTop)
	mc.push(mc.sentinelRA())
	mc.pc = mc.entry["main"]
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

func (mc *Machine) trap(t sim.Trap) { panic(trapPanic{t}) }

func (mc *Machine) mapped(addr, size int64) bool {
	if addr >= ir.GlobalBase && addr+size <= mc.dataEnd {
		return true
	}
	return addr >= ir.StackLimit && addr+size <= ir.StackTop
}

func (mc *Machine) loadMem(addr int64, size uint8) uint64 {
	if !mc.mapped(addr, int64(size)) {
		mc.trap(sim.TrapBadAddress)
	}
	var v uint64
	for i := uint8(0); i < size; i++ {
		v |= uint64(mc.mem[addr+int64(i)]) << (8 * i)
	}
	return v
}

func (mc *Machine) storeMem(addr int64, size uint8, v uint64) {
	if !mc.mapped(addr, int64(size)) {
		mc.trap(sim.TrapBadAddress)
	}
	for i := uint8(0); i < size; i++ {
		mc.mem[addr+int64(i)] = byte(v >> (8 * i))
	}
	if addr >= ir.StackLimit {
		if addr < mc.minTouch {
			mc.minTouch = addr
		}
	} else if mc.snapCapture {
		// Data-segment dirty range, tracked only while building
		// checkpoints (the segment below StackLimit is globals only).
		if addr < mc.dataLo {
			mc.dataLo = addr
		}
		if end := addr + int64(size); end > mc.dataHi {
			mc.dataHi = end
		}
	}
}

func (mc *Machine) push(v uint64) {
	sp := int64(mc.regs[asm.RSP]) - 8
	mc.regs[asm.RSP] = uint64(sp)
	mc.storeMem(sp, 8, v)
}

func (mc *Machine) pop() uint64 {
	sp := int64(mc.regs[asm.RSP])
	v := mc.loadMem(sp, 8)
	mc.regs[asm.RSP] = uint64(sp + 8)
	return v
}

// effAddr computes the effective address of a memory operand.
func (mc *Machine) effAddr(o *mop) int64 {
	addr := o.imm
	if o.reg != asm.RegNone {
		addr += int64(mc.regs[o.reg])
	}
	if o.index != asm.RegNone {
		addr += int64(mc.regs[o.index]) * o.scale
	}
	return addr
}

// readOp reads a source operand at the given width (zero-extended into
// the return value; callers sign-extend as needed).
func (mc *Machine) readOp(o *mop, size uint8) uint64 {
	switch o.kind {
	case asm.OperandReg:
		return truncVal(mc.regs[o.reg], size)
	case asm.OperandImm:
		return truncVal(uint64(o.imm), size)
	case asm.OperandMem:
		return mc.loadMem(mc.effAddr(o), size)
	default:
		panic("machine: bad operand")
	}
}

func truncVal(v uint64, size uint8) uint64 {
	switch size {
	case 1:
		return v & 0xff
	case 4:
		return v & 0xffff_ffff
	default:
		return v
	}
}

// writeReg writes v into r with x86 width semantics: 64-bit writes
// replace, 32-bit writes zero-extend, 8-bit writes merge the low byte.
func (mc *Machine) writeReg(r asm.Reg, size uint8, v uint64) {
	switch size {
	case 8:
		mc.regs[r] = v
	case 4:
		mc.regs[r] = v & 0xffff_ffff
	default:
		mc.regs[r] = (mc.regs[r] &^ 0xff) | (v & 0xff)
	}
}

// writeDst writes to a register or memory destination.
func (mc *Machine) writeDst(o *mop, size uint8, v uint64) {
	if o.kind == asm.OperandReg {
		mc.writeReg(o.reg, size, v)
		return
	}
	mc.storeMem(mc.effAddr(o), size, v)
}

func signExtend(v uint64, size uint8) int64 {
	switch size {
	case 1:
		return int64(int8(v))
	case 4:
		return int64(int32(v))
	default:
		return int64(v)
	}
}

// setSubFlags computes RFLAGS after a-b at the given width.
func setSubFlags(a, b uint64, size uint8) uint64 {
	w := uint(size) * 8
	mask := ^uint64(0) >> (64 - w)
	a &= mask
	b &= mask
	r := (a - b) & mask
	sign := uint64(1) << (w - 1)
	var f uint64
	if r == 0 {
		f |= asm.FlagZF
	}
	if r&sign != 0 {
		f |= asm.FlagSF
	}
	if ((a^b)&(a^r))&sign != 0 {
		f |= asm.FlagOF
	}
	if a < b {
		f |= asm.FlagCF
	}
	f |= asm.PFTable[uint8(r)]
	return f
}

// setLogicFlags computes RFLAGS after a logic op (test): OF=CF=0.
func setLogicFlags(r uint64, size uint8) uint64 {
	w := uint(size) * 8
	mask := ^uint64(0) >> (64 - w)
	r &= mask
	sign := uint64(1) << (w - 1)
	var f uint64
	if r == 0 {
		f |= asm.FlagZF
	}
	if r&sign != 0 {
		f |= asm.FlagSF
	}
	f |= asm.PFTable[uint8(r)]
	return f
}

// ucomisdFlags computes RFLAGS for an unordered double compare.
func ucomisdFlags(a, b float64) uint64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return asm.FlagZF | asm.FlagPF | asm.FlagCF
	case a > b:
		return 0
	case a < b:
		return asm.FlagCF
	default:
		return asm.FlagZF
	}
}

// maybeInject applies the pending fault to the instruction's destination
// register after it executed. Returns for ret-specials are handled
// inline in exec.
func (mc *Machine) maybeInject(in *minstr) {
	mc.inject++
	if mc.tr != nil {
		mc.traceDef(in)
	}
	if mc.inject != mc.injectAt {
		return
	}
	mc.injected = true
	mc.injStatic = mc.pc
	mc.injOrigin = in.origin
	mc.injCheck = in.checker
	r := in.destReg
	if r == asm.RFLAGS {
		// Under the fast core the flag state may still be lazy; the flip
		// must land on architectural flags, so materialize first (a no-op
		// on the reference core, where flags are always concrete).
		mc.materializeFlags()
		flag := asm.DefinedFlags[mc.injectBit%len(asm.DefinedFlags)]
		mc.regs[asm.RFLAGS] ^= flag
		return
	}
	w := in.bits
	if w <= 0 {
		w = 64
	}
	mc.regs[r] ^= 1 << (mc.injectBit % w)
}
