// Package sim defines the execution-outcome types shared by the two
// fault-injection engines: the IR interpreter (package interp) and the
// assembly simulator (package machine). The campaign layer drives both
// through the Engine interface, which is what makes the cross-layer
// comparison of the paper possible with one harness.
package sim

import (
	"flowery/internal/asm"
	"flowery/internal/telemetry"
)

// Status classifies how a run ended.
type Status uint8

const (
	// StatusOK means the program ran to completion and returned.
	StatusOK Status = iota
	// StatusDetected means a duplication checker fired (check_fail was
	// called): the fault was caught before it could corrupt output.
	StatusDetected
	// StatusTrap means the run aborted with a hardware-visible error
	// (the DUE category of the paper).
	StatusTrap
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusDetected:
		return "detected"
	case StatusTrap:
		return "trap"
	default:
		return "unknown"
	}
}

// Trap enumerates DUE causes.
type Trap uint8

const (
	TrapNone Trap = iota
	// TrapBadAddress is a load/store to an unmapped address.
	TrapBadAddress
	// TrapDivide is a division by zero or quotient overflow (x86 #DE).
	TrapDivide
	// TrapStackOverflow is frame allocation crossing StackLimit.
	TrapStackOverflow
	// TrapTimeout is exceeding the dynamic instruction budget.
	TrapTimeout
	// TrapCallDepth is exceeding the call depth limit (IR level only;
	// at assembly level runaway recursion hits the stack guard).
	TrapCallDepth
	// TrapOutputOverflow is exceeding the output size cap.
	TrapOutputOverflow
	// TrapBadJump is a return to a corrupted address (assembly level).
	TrapBadJump
)

func (t Trap) String() string {
	switch t {
	case TrapNone:
		return "none"
	case TrapBadAddress:
		return "bad-address"
	case TrapDivide:
		return "divide"
	case TrapStackOverflow:
		return "stack-overflow"
	case TrapTimeout:
		return "timeout"
	case TrapCallDepth:
		return "call-depth"
	case TrapOutputOverflow:
		return "output-overflow"
	case TrapBadJump:
		return "bad-jump"
	default:
		return "unknown"
	}
}

// Fault describes a single-bit flip to inject. The zero value injects
// nothing (golden run). The same fault specification drives both layers;
// only the site population differs (IR instructions with results vs
// assembly instructions with destination registers).
type Fault struct {
	// TargetIndex is the 1-based index of the dynamic instruction to
	// corrupt, counted over instructions that have a destination.
	TargetIndex int64
	// Bit selects the bit to flip; it is reduced modulo the destination
	// width at injection time (all widths divide 64, so the choice stays
	// uniform).
	Bit int
}

// Active reports whether the fault will inject.
func (f Fault) Active() bool { return f.TargetIndex > 0 }

// Options tunes one run.
type Options struct {
	// MaxSteps bounds executed instructions; 0 means DefaultMaxSteps.
	MaxSteps int64
	// Profile enables per-static-instruction execution counts where the
	// engine supports them.
	Profile bool
	// Reference forces the engine's reference interpretation loop even
	// when its predecoded fast core could serve the run. Results are
	// bit-identical either way; the knob exists so equivalence gates can
	// measure one core against the other.
	Reference bool
	// Metrics, when non-nil, receives per-run engine telemetry: run and
	// instruction counters per core, run-duration histograms, and the
	// fast core's slow-step fallback tally. Engines flush once per run —
	// never per instruction — so a nil registry costs one pointer test
	// per run (see telemetry package doc).
	Metrics *telemetry.Registry
}

// DefaultMaxSteps is the per-run dynamic instruction budget. Golden runs
// of the benchmarks are far below it; a faulty run that exceeds it is a
// hang, classified as a DUE.
const DefaultMaxSteps = 64 << 20

// Result reports the outcome of one execution.
type Result struct {
	Status Status
	Trap   Trap
	// Output is the bytes printed by the program. Owned by the caller.
	Output []byte
	// RetVal is main's return value (when StatusOK).
	RetVal int64
	// DynInstrs counts every executed instruction.
	DynInstrs int64
	// InjectableInstrs counts executed instructions with destinations;
	// fault TargetIndex ranges over [1, InjectableInstrs].
	InjectableInstrs int64
	// Injected reports whether the requested fault actually fired (a
	// fault past the end of a shorter-than-expected run does not).
	Injected bool
	// InjectedStatic is the static index of the corrupted instruction
	// (position in the engine's canonical instruction enumeration), or
	// -1 when no fault fired. The profiling stage uses it to attribute
	// outcomes to static instructions.
	InjectedStatic int32
	// InjectedOrigin is the provenance tag of the corrupted instruction
	// (assembly level only); it drives root-cause classification.
	InjectedOrigin asm.Origin
	// InjectedChecker reports whether the corrupted instruction belongs
	// to a duplication checker.
	InjectedChecker bool
}

// Engine is a deterministic fault-injection execution engine. Engines
// are not safe for concurrent use; campaign workers each own one.
type Engine interface {
	// Run executes the program once, optionally injecting a fault.
	Run(f Fault, o Options) Result
}

// UseKind classifies how a traced value is consumed. The kinds are the
// def-use facts the equivalence partitioner folds into a fault site's
// signature (package equiv): two sites whose values reach the same
// static consumers through the same kinds of uses are candidates for
// the same class.
type UseKind uint8

const (
	// UseArith: an arithmetic/logic/move operand.
	UseArith UseKind = iota
	// UseAddr: the value forms part of a memory address.
	UseAddr
	// UseStoreVal: the value is written to memory.
	UseStoreVal
	// UseBranch: the value decides a control-flow transfer.
	UseBranch
	// UseCmp: the value is an operand of a comparison. Kept distinct
	// from UseArith because compare operands gate branches
	// value-dependently, which matters for class sensitivity.
	UseCmp
	// UseCallArg: the value is passed to a callee.
	UseCallArg
	// UseRet: the value is returned to a caller.
	UseRet
	// UseDiv: the value is a divisor or dividend (can raise #DE).
	UseDiv
	// UseOutput: the value is printed (directly observable).
	UseOutput

	NumUseKinds = 9
)

func (k UseKind) String() string {
	switch k {
	case UseArith:
		return "arith"
	case UseAddr:
		return "addr"
	case UseStoreVal:
		return "store"
	case UseBranch:
		return "branch"
	case UseCmp:
		return "cmp"
	case UseCallArg:
		return "callarg"
	case UseRet:
		return "ret"
	case UseDiv:
		return "div"
	case UseOutput:
		return "output"
	default:
		return "unknown"
	}
}

// Tracer receives the def-use stream of a golden run. Engines call Def
// exactly once per injectable destination, in the same order their
// injection counter enumerates fault sites — the tracer numbers defs
// itself, so def i corresponds to Fault.TargetIndex i+1. This ordering
// contract is what lets a trace consumer map equivalence classes back
// to injectable fault targets.
//
// The returned handle stays valid until Kill; a location overwritten by
// a non-injectable ("anonymous") write whose result is data-dependent
// on the old value keeps the old handle, so downstream influence keeps
// accruing to the site that would feel a flip.
type Tracer interface {
	// Def records an injectable definition by static instruction
	// static, of width bits, producing value. sensitive marks defs
	// whose concrete value must partition classes regardless of use
	// kinds (flags, return addresses).
	Def(static int32, width uint8, value uint64, sensitive bool) (handle int64)
	// Use records that the live value of a def flows into consumer
	// (a static instruction index) through kind.
	Use(handle int64, consumer int32, kind UseKind)
	// Retain adds a reference to a def whose value was copied into a
	// second live location (a call argument); each Retain needs a
	// matching Kill.
	Retain(handle int64)
	// Kill releases one reference; the def's liveness window ends when
	// the last reference is released.
	Kill(handle int64)
}

// TraceEngine is the optional golden-run instrumentation capability
// behind equivalence pruning. RunTraced must execute exactly like
// Run(Fault{}, o) — same Result, same injectable enumeration — while
// streaming def-use events to t. Callers type-assert; engines without
// the capability simply cannot be pruned.
type TraceEngine interface {
	Engine
	RunTraced(o Options, t Tracer) Result
}

// SnapshotEngine is the optional checkpoint/fast-forward capability: an
// engine that can capture periodic snapshots of the golden run and start
// a faulty run from the densest checkpoint below its injection point.
// Execution before the injection point is bit-identical to the golden
// run, so a restored run's Result must equal a from-scratch Run's bit
// for bit; the campaign layer relies on that to keep outcomes invariant
// under fast-forwarding. Engines without the capability are driven
// through plain Run — callers type-assert and degrade gracefully.
type SnapshotEngine interface {
	Engine
	// BuildSnapshots executes the golden run once, capturing a checkpoint
	// roughly every interval injectable instructions, and returns the
	// golden Result. Snapshots are kept only if the run completed with
	// StatusOK.
	BuildSnapshots(interval int64, o Options) Result
	// RunFrom is Run accelerated by checkpoint restore and, on engines
	// that compare a faulty run's state with the golden checkpoints, by
	// stopping a run that reconverges with the golden run (its result is
	// the golden one apart from the Injected* fields). skipped reports
	// how many of the result's DynInstrs were not executed: the restored
	// prefix (0 when the run started from scratch) plus any converged
	// tail.
	RunFrom(f Fault, o Options) (res Result, skipped int64)
	// DropSnapshots releases checkpoint storage.
	DropSnapshots()
}
