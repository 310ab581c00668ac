package campaign

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"flowery/internal/asm"
	"flowery/internal/sim"
)

// This file is the campaign half of sharded multi-process execution
// (DESIGN.md §13): deterministic partitioning of a campaign's run range
// into shards, a runner that executes one shard against a persistent
// engine pool, and the exact merge that reassembles per-shard results
// into the Stats a single-process Run would have produced. The process
// farming itself — worker processes, the wire protocol, work stealing —
// lives in internal/shard, behind the ShardExecutor interface, so this
// package stays free of process management and the shard package stays
// free of statistics.
//
// The exactness argument, in short: a campaign's outcome statistics are
// a pure function of the per-run outcome sequence, every run's fault
// derives from (seed, run index, injectable population) alone, and the
// aggregation is integer addition. Partitioning [0, Runs) into disjoint
// contiguous shards, classifying each run in its shard, and summing the
// per-shard integer tallies therefore reproduces the single-process
// aggregate bit for bit — no floating point, no order sensitivity, no
// scheduling dependence. MergeShards additionally cross-checks that
// every shard observed the same golden run (dynamic and injectable
// counts), which catches any worker whose reconstructed program drifted
// from the coordinator's.

// Record is one run's classified outcome together with the fault that
// produced it — the unit the sharded executor ships between processes
// (encoded via internal/reclog) and `flowery inject -reclog` stores on
// disk.
type Record struct {
	// Run is the run index within the campaign.
	Run int
	// Outcome is the run's classification.
	Outcome Outcome
	// Origin is the provenance tag of the injected instruction
	// (asm.OriginNone at IR level).
	Origin asm.Origin
	// Target is the injected fault's dynamic target index.
	Target int64
	// Bit is the flipped bit choice.
	Bit uint8
}

// ShardRange is a half-open range [Lo, Hi) of run indices.
type ShardRange struct {
	Lo, Hi int
}

// Runs returns the number of runs in the range.
func (r ShardRange) Runs() int { return r.Hi - r.Lo }

// SplitShards partitions [0, runs) into min(n, runs) contiguous,
// non-empty, near-equal ranges (the first runs%n shards take one extra
// run). The split is deterministic: it depends only on (runs, n), which
// is what lets coordinator and workers derive identical plans from the
// shard count alone.
func SplitShards(runs, n int) []ShardRange {
	if n > runs {
		n = runs
	}
	if n < 1 {
		n = 1
	}
	base, rem := runs/n, runs%n
	out := make([]ShardRange, n)
	lo := 0
	for i := range out {
		hi := lo + base
		if i < rem {
			hi++
		}
		out[i] = ShardRange{lo, hi}
		lo = hi
	}
	return out
}

// ShardResult is one shard's contribution to a campaign: integer
// outcome tallies, the per-run records, and the golden-run facts the
// merge cross-checks for consensus. SetupInstrs carries the executing
// worker's one-time cost (golden run, snapshot builds) on the first
// result that worker reports, so merged perf telemetry accounts for all
// executed instructions exactly once.
type ShardResult struct {
	Range       ShardRange
	Counts      [NumOutcomes]int
	SDCByOrigin [asm.NumOrigins]int

	GoldenDyn        int64
	GoldenInjectable int64

	// SimulatedInstrs and SavedInstrs cover the shard's runs only.
	SimulatedInstrs int64
	SavedInstrs     int64
	// SetupInstrs is the worker's amortized setup cost (golden run plus
	// snapshot builds), reported once per worker.
	SetupInstrs int64

	// Records holds the shard's runs in run order.
	Records []Record
}

// ShardExecutor executes the shards of one campaign. Execute must call
// emit exactly once per range (in any order, from any goroutine — emit
// is serialized by the caller) and may execute a range more than once
// internally as long as a single result is reported, which is what
// makes work-stealing reassignment of straggler shards safe: shards are
// deterministic and idempotent, so the first completed result is as
// good as any.
type ShardExecutor interface {
	Execute(spec Spec, ranges []ShardRange, emit func(ShardResult)) error
}

// RunSharded executes a campaign partitioned into opts.Shards disjoint
// run ranges through opts.Exec (default: in-process, sequential, one
// engine pool) and merges the per-shard results exactly. The merged
// Stats' outcome fields are bit-identical to Run's for the same Spec —
// enforced by TestRunShardedMatchesRun and the scripts/ci.sh sharded
// diff gate — while the perf fields (SimulatedInstrs, SavedInstrs,
// Elapsed) describe the sharded execution.
//
// Campaign telemetry (Spec.Metrics) is flushed here, once, at the
// coordinator: shard executors and workers must never emit campaign_*
// counters, or a sharded campaign would count each run once per shard
// touchpoint (see TestShardedTelemetrySingleCount).
func RunSharded(factory EngineFactory, spec Spec, opts ShardOpts) (Stats, error) {
	start := time.Now()
	if err := spec.Validate(); err != nil {
		return Stats{}, err
	}
	if spec.Pruning != PruneNone {
		return Stats{}, fmt.Errorf("campaign: sharded campaigns sample the full population; combine pruning with sharding at the stratum level instead (run RunPruned per shard of classes)")
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = 1
	}
	exec := opts.Exec
	if exec == nil {
		if factory == nil {
			return Stats{}, fmt.Errorf("campaign: RunSharded needs an engine factory or a ShardExecutor")
		}
		exec = InProcess(factory)
	}
	ranges := SplitShards(spec.Runs, shards)

	var mu sync.Mutex
	results := make([]*ShardResult, len(ranges))
	emit := func(r ShardResult) {
		mu.Lock()
		defer mu.Unlock()
		for i, rg := range ranges {
			if rg == r.Range {
				if results[i] == nil {
					rc := r
					results[i] = &rc
				}
				return
			}
		}
	}
	if err := exec.Execute(spec, ranges, emit); err != nil {
		return Stats{}, err
	}

	collected := make([]ShardResult, 0, len(ranges))
	for i, r := range results {
		if r == nil {
			return Stats{}, fmt.Errorf("campaign: shard %d (%d..%d) reported no result", i, ranges[i].Lo, ranges[i].Hi)
		}
		collected = append(collected, *r)
	}
	total, err := MergeShards(spec, collected)
	if err != nil {
		return Stats{}, err
	}
	total.Elapsed = time.Since(start)
	flushStats(spec.Metrics, total)
	if spec.Records != nil {
		for _, r := range collected {
			for _, rec := range r.Records {
				spec.Records(rec)
			}
		}
	}
	return total, nil
}

// ShardOpts configures RunSharded.
type ShardOpts struct {
	// Shards is the number of contiguous run ranges (values <= 1 run a
	// single shard; sharding with one shard is still useful as the
	// degenerate case of the process executor).
	Shards int
	// Exec runs the shards; nil uses in-process sequential execution
	// through factory.
	Exec ShardExecutor
}

// MergeShards reassembles per-shard results into campaign Stats. It
// requires the shards to cover [0, spec.Runs) disjointly and to agree
// on the golden run; outcome tallies are summed exactly (integer
// addition, so grouping and order cannot perturb the result).
func MergeShards(spec Spec, shards []ShardResult) (Stats, error) {
	if len(shards) == 0 {
		return Stats{}, fmt.Errorf("campaign: no shard results to merge")
	}
	sorted := append([]ShardResult(nil), shards...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Range.Lo < sorted[j].Range.Lo })

	total := Stats{
		Runs:             spec.Runs,
		GoldenDyn:        sorted[0].GoldenDyn,
		GoldenInjectable: sorted[0].GoldenInjectable,
	}
	next := 0
	for _, s := range sorted {
		if s.Range.Lo != next || s.Range.Hi <= s.Range.Lo {
			return Stats{}, fmt.Errorf("campaign: shard ranges do not tile [0,%d): got [%d,%d) where %d expected",
				spec.Runs, s.Range.Lo, s.Range.Hi, next)
		}
		if s.GoldenDyn != total.GoldenDyn || s.GoldenInjectable != total.GoldenInjectable {
			return Stats{}, fmt.Errorf("campaign: golden-run disagreement across shards: (%d dyn, %d injectable) vs (%d, %d) — worker program drift",
				s.GoldenDyn, s.GoldenInjectable, total.GoldenDyn, total.GoldenInjectable)
		}
		sum := 0
		for o, n := range s.Counts {
			total.Counts[o] += n
			sum += n
		}
		if sum != s.Range.Runs() {
			return Stats{}, fmt.Errorf("campaign: shard [%d,%d) tallied %d outcomes for %d runs", s.Range.Lo, s.Range.Hi, sum, s.Range.Runs())
		}
		for o, n := range s.SDCByOrigin {
			total.SDCByOrigin[o] += n
		}
		total.SimulatedInstrs += s.SimulatedInstrs + s.SetupInstrs
		total.SavedInstrs += s.SavedInstrs
		next = s.Range.Hi
	}
	if next != spec.Runs {
		return Stats{}, fmt.Errorf("campaign: shard ranges cover [0,%d) of [0,%d)", next, spec.Runs)
	}
	return total, nil
}

// ShardRunner executes disjoint run ranges of one campaign against a
// persistent engine pool: the golden run happens once, snapshots are
// built once per engine, and every RunRange after that pays only for
// its own injections. It is the campaign core (prepare/execute) kept
// alive across ranges. One runner per worker process (or per
// in-process executor); not safe for concurrent RunRange calls.
type ShardRunner struct {
	c *core
}

// NewShardRunner validates the spec, executes the golden run, builds
// the engine pool (spec.Workers engines, default GOMAXPROCS), and
// captures snapshots per the spec's snapshot policy. The returned
// runner never emits campaign telemetry — counters for a sharded
// campaign are the coordinator's to flush, exactly once.
func NewShardRunner(factory EngineFactory, spec Spec) (*ShardRunner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Pruning != PruneNone {
		return nil, fmt.Errorf("campaign: ShardRunner executes full campaigns only (got Pruning: %s)", spec.Pruning)
	}
	spec.Metrics, spec.TraceSpan = nil, nil
	c, err := prepare(factory, spec, goldenPlain)
	if err != nil {
		return nil, err
	}
	if err := c.grow(c.workers(spec.Runs)); err != nil {
		return nil, err
	}
	c.warmAll()
	return &ShardRunner{c}, nil
}

// Golden returns the runner's golden-run result.
func (r *ShardRunner) Golden() sim.Result { return r.c.golden }

// SetupInstrs returns the one-time instruction cost (golden run plus
// snapshot-building runs) the caller should attribute to exactly one of
// the runner's shard results.
func (r *ShardRunner) SetupInstrs() int64 { return r.c.setupInstrs() }

// Close releases snapshot storage.
func (r *ShardRunner) Close() { r.c.close() }

// RunRange executes runs [rg.Lo, rg.Hi) and returns the shard's result
// (SetupInstrs zero; the caller attributes setup once via SetupInstrs).
// Faults, batching, and classification are Run's own (core.runRange),
// so the tallies are independent of how the campaign is sharded.
func (r *ShardRunner) RunRange(rg ShardRange) (ShardResult, error) {
	if rg.Lo < 0 || rg.Hi > r.c.spec.Runs || rg.Lo >= rg.Hi {
		return ShardResult{}, fmt.Errorf("campaign: shard range [%d,%d) outside campaign [0,%d)", rg.Lo, rg.Hi, r.c.spec.Runs)
	}
	return r.c.runRange(rg)
}

// InProcess returns the default ShardExecutor: one ShardRunner in this
// process, shards executed sequentially. It is the reference the
// process executor (internal/shard) is equivalence-tested against, and
// what RunSharded uses when no executor is supplied.
func InProcess(factory EngineFactory) ShardExecutor {
	return inProcessExec{factory}
}

type inProcessExec struct {
	factory EngineFactory
}

func (e inProcessExec) Execute(spec Spec, ranges []ShardRange, emit func(ShardResult)) error {
	runner, err := NewShardRunner(e.factory, spec)
	if err != nil {
		return err
	}
	defer runner.Close()
	for i, rg := range ranges {
		res, err := runner.RunRange(rg)
		if err != nil {
			return err
		}
		if i == 0 {
			res.SetupInstrs = runner.SetupInstrs()
		}
		emit(res)
	}
	return nil
}
