// Package campaign orchestrates Monte-Carlo fault-injection campaigns
// (paper §4.3): for each run, a uniformly random dynamic instruction with
// a destination is chosen, a uniformly random bit of that destination is
// flipped, and the outcome is classified against the golden run. The
// same harness drives the IR interpreter and the assembly simulator
// through sim.Engine, which is what makes the paper's cross-layer
// comparison possible.
//
// Campaigns are deterministic: outcome counts depend only on the engine,
// the run count, and the seed — not on scheduling — because every run's
// random choices derive from the seed and the run index alone.
package campaign

import (
	"bytes"
	"fmt"
	"time"

	"flowery/internal/asm"
	"flowery/internal/sim"
	"flowery/internal/stats"
	"flowery/internal/telemetry"
)

// Outcome classifies one injection run.
type Outcome uint8

const (
	// OutcomeBenign: the program finished with golden output.
	OutcomeBenign Outcome = iota
	// OutcomeSDC: the program finished normally with corrupted output.
	OutcomeSDC
	// OutcomeDUE: the program crashed or hung.
	OutcomeDUE
	// OutcomeDetected: a duplication checker caught the fault.
	OutcomeDetected

	NumOutcomes = 4
)

func (o Outcome) String() string {
	switch o {
	case OutcomeBenign:
		return "benign"
	case OutcomeSDC:
		return "sdc"
	case OutcomeDUE:
		return "due"
	case OutcomeDetected:
		return "detected"
	default:
		return "unknown"
	}
}

// HangFactor is the multiple of the golden run's dynamic instruction
// count after which a faulty run counts as hung.
const HangFactor = 50

// Pruning selects a campaign's sampling strategy.
type Pruning uint8

const (
	// PruneNone samples the fault population uniformly, one injection
	// per run (the classic Monte-Carlo campaign).
	PruneNone Pruning = iota
	// PruneClasses partitions fault sites into equivalence classes
	// (package equiv), injects a pilot budget of Spec.PilotsPerClass per
	// live class allocated by class weight, and extrapolates stratum
	// outcomes to population-level statistics (see RunPruned).
	PruneClasses
)

func (p Pruning) String() string {
	if p == PruneClasses {
		return "classes"
	}
	return "none"
}

// SnapshotsOff is the Spec.Snapshots value that disables
// checkpoint/fast-forward execution.
const SnapshotsOff = -1

// Spec configures a campaign.
type Spec struct {
	// Runs is the number of fault injections (the paper uses 3000).
	// Under PruneClasses it is the population-equivalent campaign size
	// extrapolated statistics are scaled to, not the injection count.
	Runs int
	// Seed drives all random choices.
	Seed int64
	// MaxSteps bounds each run (0: sim.DefaultMaxSteps).
	MaxSteps int64
	// Workers is the parallelism (0: GOMAXPROCS).
	Workers int
	// Snapshots tunes checkpoint/fast-forward execution: 0 uses it
	// automatically whenever the engine supports it (with
	// DefaultSnapshotTarget checkpoints per golden run), a positive value
	// overrides the per-run checkpoint target, and SnapshotsOff (-1)
	// disables fast-forwarding. Outcome statistics are bit-identical
	// either way; only the wall clock changes.
	Snapshots int
	// Pruning selects equivalence pruning; PruneClasses requires an
	// engine implementing sim.TraceEngine.
	Pruning Pruning
	// PilotsPerClass is the average pilot budget per live equivalence
	// class, in [1, MaxPilotsPerClass]: the pruned campaign executes
	// about PilotsPerClass × (live classes) injections, allocated across
	// strata by class weight (equiv.BuildPlan). Only meaningful (and
	// required) with PruneClasses.
	PilotsPerClass int
	// Masks, when non-nil, supplies each static site's statically
	// proven-masked bit choices (internal/bitmask.Analysis.Masked for
	// the layer the engine executes). RunPruned composes it into the
	// pilot plan: masked choices are scored benign with zero pilots and
	// the pilot budget shrinks by the masked fraction. Only meaningful
	// (and only permitted) with Pruning: classes.
	Masks func(static int32, width uint8) uint64
	// Reference pins every run to the engines' reference interpretation
	// loop instead of their predecoded fast cores. Statistics are
	// bit-identical either way; the knob exists for equivalence gating
	// and for measuring the fast cores' speedup.
	Reference bool
	// Metrics, when non-nil, receives campaign telemetry — run/outcome
	// counters, snapshot build/restore tallies, per-worker injection
	// throughput gauges, pruning tallies — and is forwarded to the
	// engines via sim.Options. Like Stats' perf fields, it is excluded
	// from the determinism guarantees and from pipeline cache keys.
	Metrics *telemetry.Registry
	// TraceSpan, when non-nil, parents the campaign's trace spans
	// (golden run, per-worker batches, engine runs) in Metrics' registry.
	TraceSpan *telemetry.Span
	// Records, when non-nil, receives every run's Record in run order
	// once outcomes are merged (full campaigns only; pruned campaigns
	// have no per-run population sample to record). The sink is
	// observation only: it never influences outcomes and, like Metrics,
	// is excluded from pipeline cache keys — a cache hit replays no
	// records. The sharded executor encodes this stream with
	// internal/reclog; `flowery inject -reclog` stores it on disk.
	Records func(Record)
}

// Validate rejects nonsensical specs up front with a descriptive error,
// before any engine work. Run and RunPruned call it; it is exported so
// CLIs and the pipeline can fail fast.
func (s Spec) Validate() error {
	if s.Runs <= 0 {
		return fmt.Errorf("campaign: Runs must be positive (got %d)", s.Runs)
	}
	if s.MaxSteps < 0 {
		return fmt.Errorf("campaign: MaxSteps must be >= 0 (got %d)", s.MaxSteps)
	}
	if s.Snapshots < SnapshotsOff {
		return fmt.Errorf("campaign: Snapshots must be >= -1 (0 auto-tunes, >0 sets the checkpoint target, -1 disables fast-forwarding; got %d)", s.Snapshots)
	}
	switch s.Pruning {
	case PruneNone:
		if s.PilotsPerClass != 0 {
			return fmt.Errorf("campaign: PilotsPerClass (%d) is only meaningful with Pruning: classes", s.PilotsPerClass)
		}
		if s.Masks != nil {
			return fmt.Errorf("campaign: Masks (static bit masking) is only meaningful with Pruning: classes")
		}
	case PruneClasses:
		if s.PilotsPerClass < 1 {
			return fmt.Errorf("campaign: PilotsPerClass must be >= 1 under Pruning: classes (got %d)", s.PilotsPerClass)
		}
		if s.PilotsPerClass > MaxPilotsPerClass {
			return fmt.Errorf("campaign: PilotsPerClass must be <= %d; a larger average budget would outgrow the per-class site sample the trace collector retains (got %d)", MaxPilotsPerClass, s.PilotsPerClass)
		}
	default:
		return fmt.Errorf("campaign: unknown pruning mode %d", s.Pruning)
	}
	return nil
}

// checkPopulation rejects campaigns larger than the distinct-fault
// population: every injectable site has at most 64 distinct single-bit
// faults, so more runs than 64×sites cannot add information and almost
// certainly means Runs and the program were swapped or mis-scaled.
func checkPopulation(runs int, injectable int64) error {
	if int64(runs) > 64*injectable {
		return fmt.Errorf("campaign: %d runs exceed the distinct fault population (%d injectable sites × 64 bit choices = %d)",
			runs, injectable, 64*injectable)
	}
	return nil
}

// Stats aggregates campaign outcomes.
type Stats struct {
	Runs   int
	Counts [NumOutcomes]int
	// SDCByOrigin attributes SDC runs to the provenance tag of the
	// injected assembly instruction (all OriginNone at IR level).
	SDCByOrigin [asm.NumOrigins]int
	// GoldenDyn and GoldenInjectable describe the fault-free run.
	GoldenDyn        int64
	GoldenInjectable int64

	// Perf telemetry. Unlike the outcome fields above, these depend on
	// scheduling (worker count, snapshot placement) and wall clock; they
	// are excluded from determinism guarantees.
	//
	// SimulatedInstrs counts dynamic instructions actually executed
	// across the campaign, including golden and snapshot-building runs.
	// SavedInstrs counts instructions the faulty runs did not execute:
	// prefixes fast-forwarded over via checkpoint restore, and golden
	// tails cut off when a run reconverged with the golden run. Scratch
	// execution of the same campaign would have cost
	// SimulatedInstrs+SavedInstrs.
	SimulatedInstrs int64
	SavedInstrs     int64
	// Elapsed is the wall-clock duration of Run.
	Elapsed time.Duration

	// Equivalence-pruning extrapolation, populated only by RunPruned.
	// When Pruned is set, Counts and SDCByOrigin above hold the
	// stratified estimates scaled to Runs by largest-remainder rounding
	// (so they still sum to Runs), while EstRates carry the exact
	// estimates and [SDCLo, SDCHi] the stratified 95% interval.
	Pruned bool
	// Classes is the number of equivalence classes in the partition.
	Classes int
	// DeadSites counts provably-benign sites extrapolated without any
	// injection; DeadBits is the bit-choice population those sites
	// cover (64 per site).
	DeadSites int64
	DeadBits  int64
	// MaskedSites counts live sites with at least one statically
	// proven-masked bit choice; MaskedBits counts the proven-masked
	// (site, bit-choice) pairs scored benign without injection. Both
	// are zero unless Spec.Masks was set.
	MaskedSites int64
	MaskedBits  int64
	// PilotRuns is the number of injections actually executed.
	PilotRuns int
	EstRates  [NumOutcomes]float64
	SDCLo     float64
	SDCHi     float64

	// Sectioned composition (RunSectioned; implies Pruned — the
	// statistics are stratified estimates). Sections counts the
	// sections of the program that executed; SectionsRecalled of them
	// were served from stored summaries and SectionsExecuted were
	// estimated with fresh injections, so PilotRuns above is the
	// incremental re-analysis cost alone.
	Sectioned        bool
	Sections         int
	SectionsExecuted int
	SectionsRecalled int
}

// SavedFrac is the fraction of the campaign's total instruction work
// skipped by checkpoint restore or golden convergence (0 when snapshots
// were off or useless).
func (s Stats) SavedFrac() float64 {
	total := s.SimulatedInstrs + s.SavedInstrs
	if total == 0 {
		return 0
	}
	return float64(s.SavedInstrs) / float64(total)
}

// RunsPerSec is the campaign throughput in injection runs per second.
func (s Stats) RunsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Runs) / s.Elapsed.Seconds()
}

// Rate returns the fraction of runs with the given outcome (for pruned
// campaigns, the exact stratified estimate rather than the rounded
// Counts ratio).
func (s Stats) Rate(o Outcome) float64 {
	if s.Pruned {
		return s.EstRates[o]
	}
	if s.Runs == 0 {
		return 0
	}
	return float64(s.Counts[o]) / float64(s.Runs)
}

// SDCRate is shorthand for Rate(OutcomeSDC).
func (s Stats) SDCRate() float64 { return s.Rate(OutcomeSDC) }

// Coverage computes SDC coverage of a protected configuration against
// the unprotected baseline measured at the same layer:
// (SDCraw − SDCprot) / SDCraw (paper §2.1).
func Coverage(raw, prot Stats) float64 {
	r := raw.SDCRate()
	if r == 0 {
		return 1
	}
	c := (r - prot.SDCRate()) / r
	if c < 0 {
		return 0
	}
	return c
}

// CoverageCI returns the coverage point estimate together with a 95%
// confidence interval (delta-method propagation of the two campaigns'
// binomial uncertainty; see package stats).
func CoverageCI(raw, prot Stats) (c, lo, hi float64) {
	return stats.CoverageInterval(
		stats.Proportion{Hits: raw.Counts[OutcomeSDC], Total: raw.Runs},
		stats.Proportion{Hits: prot.Counts[OutcomeSDC], Total: prot.Runs},
		stats.Z95,
	)
}

// SDCRateCI returns the SDC rate with its 95% interval: Wilson for
// plain campaigns, the stratified interval for pruned ones.
func (s Stats) SDCRateCI() (p, lo, hi float64) {
	if s.Pruned {
		return s.EstRates[OutcomeSDC], s.SDCLo, s.SDCHi
	}
	pr := stats.Proportion{Hits: s.Counts[OutcomeSDC], Total: s.Runs}
	lo, hi = pr.Wilson(stats.Z95)
	return pr.P(), lo, hi
}

// EngineFactory builds an engine instance. Run calls it once per worker,
// sequentially (engine construction may touch shared module state).
type EngineFactory func() (sim.Engine, error)

// DefaultSnapshotTarget is the number of checkpoints a golden run aims
// for when Spec.Snapshots is 0.
const DefaultSnapshotTarget = 96

// minSnapshotInterval bounds checkpoint density from below: programs too
// short to amortize capture and restore run from scratch instead.
const minSnapshotInterval = 2048

// snapshotInterval derives the checkpoint spacing for a golden run with
// the given injectable population; 0 disables fast-forwarding.
func snapshotInterval(spec Spec, injectable int64) int64 {
	target := int64(DefaultSnapshotTarget)
	switch {
	case spec.Snapshots < 0:
		return 0
	case spec.Snapshots > 0:
		target = int64(spec.Snapshots)
	}
	iv := injectable / target
	if iv < minSnapshotInterval {
		iv = minSnapshotInterval
	}
	if 2*iv > injectable {
		// At most one checkpoint would ever be restored; not worth the
		// capture cost.
		return 0
	}
	return iv
}

// job is one scheduled injection run.
type job struct {
	run   int // run index (the position outcomes are merged at)
	fault sim.Fault
}

// runOutcome is one run's classified result, recorded in a per-run slot
// so the final aggregation order is independent of scheduling.
type runOutcome struct {
	outcome Outcome
	origin  asm.Origin
}

// Run executes a campaign and returns aggregated statistics. Specs with
// Pruning: classes are forwarded to RunPruned.
func Run(factory EngineFactory, spec Spec) (Stats, error) {
	if spec.Pruning == PruneClasses {
		return RunPruned(factory, spec)
	}
	start := time.Now()
	if err := spec.Validate(); err != nil {
		return Stats{}, err
	}
	c, err := prepare(factory, spec, goldenPlain)
	if err != nil {
		return Stats{}, err
	}
	defer c.close()
	res, err := c.runRange(ShardRange{0, spec.Runs})
	if err != nil {
		return Stats{}, err
	}
	res.SetupInstrs = c.setupInstrs()
	total, err := MergeShards(spec, []ShardResult{res})
	if err != nil {
		return Stats{}, err
	}
	total.Elapsed = time.Since(start)
	flushStats(spec.Metrics, total)
	if spec.Records != nil {
		for _, rec := range res.Records {
			spec.Records(rec)
		}
	}
	return total, nil
}

// flushStats records a finished campaign's aggregates in reg (nil-safe).
// For pruned campaigns the outcome counters carry the extrapolated
// Counts (scaled to Runs); the prune_* counters carry the exact
// injection work.
func flushStats(reg *telemetry.Registry, total Stats) {
	if reg == nil {
		return
	}
	reg.Counter("campaign_runs_total").Add(int64(total.Runs))
	for o := Outcome(0); o < NumOutcomes; o++ {
		if n := total.Counts[o]; n > 0 {
			reg.Counter(`campaign_outcomes_total{outcome="` + o.String() + `"}`).Add(int64(n))
		}
	}
	reg.Counter("campaign_instrs_simulated_total").Add(total.SimulatedInstrs)
	reg.Counter("campaign_instrs_saved_total").Add(total.SavedInstrs)
	if total.Pruned {
		reg.Counter("campaign_prune_pilot_runs_total").Add(int64(total.PilotRuns))
		reg.Counter("campaign_prune_classes_total").Add(int64(total.Classes))
		reg.Counter("campaign_prune_dead_sites_total").Add(total.DeadSites)
		if total.MaskedBits > 0 {
			reg.Counter("campaign_prune_masked_sites_total").Add(total.MaskedSites)
			reg.Counter("campaign_prune_masked_bits_total").Add(total.MaskedBits)
		}
	}
	if total.Sectioned {
		reg.Counter("campaign_sections_total").Add(int64(total.Sections))
		reg.Counter("campaign_sections_executed_total").Add(int64(total.SectionsExecuted))
		reg.Counter("campaign_sections_recalled_total").Add(int64(total.SectionsRecalled))
	}
}

// classify maps a run result to an outcome.
func classify(res sim.Result, goldenOut []byte) Outcome {
	switch res.Status {
	case sim.StatusDetected:
		return OutcomeDetected
	case sim.StatusTrap:
		return OutcomeDUE
	default:
		if !res.Injected {
			// The chosen site was never reached; nothing happened.
			return OutcomeBenign
		}
		if !bytes.Equal(res.Output, goldenOut) {
			return OutcomeSDC
		}
		return OutcomeBenign
	}
}

// faultForRun derives run i's fault deterministically from the seed.
func faultForRun(seed, i, injectable int64) sim.Fault {
	h := splitmix64(uint64(seed) ^ splitmix64(uint64(i)+0x9e3779b97f4a7c15))
	target := int64(h%uint64(injectable)) + 1
	bit := int((h >> 32) % 64)
	return sim.Fault{TargetIndex: target, Bit: bit}
}

// splitmix64 is the standard 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
