package campaign

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"flowery/internal/equiv"
	"flowery/internal/sim"
	"flowery/internal/telemetry"
)

// This file is the one injection harness every campaign mode plans
// over (DESIGN.md §8): prepare runs and checks the golden run, and
// execute runs any fault list across a growable engine pool with
// checkpoint fast-forwarding. Run and ShardRunner.RunRange pick faults
// with faultForRun over a run range, RunPruned from an equivalence
// plan, RunSectioned from per-section plans, and MaskedProbe from the
// proven-masked population; only the estimators on top differ.

// goldenMode selects how prepare executes the golden run.
type goldenMode uint8

const (
	// goldenPlain runs the golden run untraced.
	goldenPlain goldenMode = iota
	// goldenTraced runs it through an equiv.Collector so the caller
	// can plan over the def-use partition of the fault population.
	goldenTraced
	// goldenProbe traces like goldenTraced but records no
	// campaign.golden span and skips the Runs population bound: a
	// masked probe injects a fixed sample, not Runs faults.
	goldenProbe
)

// core is a prepared campaign: the checked golden run plus the engine
// pool faulty runs execute on. It is not safe for concurrent execute
// calls.
type core struct {
	spec      Spec
	factory   EngineFactory
	golden    sim.Result
	goldenOut []byte
	// part is the golden run's fault partition (traced modes only).
	part equiv.Partition
	// maxSteps bounds each faulty run: a fault that corrupts a loop
	// bound can hang the program, and runs far past the golden length
	// are classified as hangs (DUE) without burning the global ceiling.
	maxSteps int64
	// interval is the checkpoint spacing; 0 runs every fault from
	// scratch.
	interval int64
	pool     []*poolEngine
}

// poolEngine is one engine of the pool together with its checkpoint
// state. Snapshots are built at most once per engine, on the engine's
// own worker goroutine, and kept until close.
type poolEngine struct {
	eng    sim.Engine
	snap   sim.SnapshotEngine // nil: runs from scratch
	warmed bool               // snapshot build attempted
	setup  int64              // snapshot-build instructions
}

// prepare builds engine 0, executes the golden run, and checks it: the
// run must finish, inject somewhere, bound the campaign's population
// (checkPopulation) and, when traced, honour the tracer's def-order
// contract. The caller validates the spec first.
func prepare(factory EngineFactory, spec Spec, mode goldenMode) (*core, error) {
	c := &core{spec: spec, factory: factory}
	if err := c.grow(1); err != nil {
		return nil, err
	}
	opts := sim.Options{MaxSteps: spec.MaxSteps, Reference: spec.Reference, Metrics: spec.Metrics}
	var gs *telemetry.Span
	if mode == goldenPlain {
		gs = spec.Metrics.StartSpan(spec.TraceSpan, "campaign.golden")
		c.golden = c.pool[0].eng.Run(sim.Fault{}, opts)
	} else {
		te, ok := c.pool[0].eng.(sim.TraceEngine)
		if !ok {
			return nil, fmt.Errorf("campaign: engine %T does not support def-use tracing (pruned, sectioned and probe campaigns need it; use Pruning: none)", c.pool[0].eng)
		}
		rules := equiv.DefaultRules(spec.Seed)
		// Match the sample to the largest pilot count a stratum can
		// take (equiv.BuildPlan), so a dominant class draws distinct
		// sites instead of cycling a short sample, which would put a
		// floor under the site-heterogeneity variance.
		rules.MaxSample = 256
		col := equiv.NewCollector(rules)
		if mode == goldenTraced {
			gs = spec.Metrics.StartSpan(spec.TraceSpan, "campaign.golden")
			gs.SetAttr("traced", "true")
		}
		c.golden = te.RunTraced(opts, col)
		c.part = col.Close()
	}
	gs.SetIntAttr("injectable", c.golden.InjectableInstrs)
	gs.End()

	g := &c.golden
	if g.Status != sim.StatusOK {
		return nil, fmt.Errorf("campaign: golden run failed: %v (%v)", g.Status, g.Trap)
	}
	if g.InjectableInstrs == 0 {
		return nil, fmt.Errorf("campaign: program has no injectable instructions")
	}
	if mode != goldenProbe {
		if err := checkPopulation(spec.Runs, g.InjectableInstrs); err != nil {
			return nil, err
		}
	}
	if mode != goldenPlain && c.part.Population != g.InjectableInstrs {
		return nil, fmt.Errorf("campaign: tracer recorded %d defs for %d injectable sites (engine def-order contract violated)",
			c.part.Population, g.InjectableInstrs)
	}
	c.goldenOut = append([]byte(nil), g.Output...)
	c.maxSteps = spec.MaxSteps
	if c.maxSteps <= 0 {
		c.maxSteps = HangFactor*g.DynInstrs + 100_000
	}
	c.interval = snapshotInterval(spec, g.InjectableInstrs)
	return c, nil
}

// workers is the pool size for n faults: Spec.Workers (default
// GOMAXPROCS), at most one engine per fault.
func (c *core) workers(n int) int {
	w := c.spec.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// grow extends the pool to n engines. The factory is called
// sequentially: engine construction may touch shared module state.
func (c *core) grow(n int) error {
	for len(c.pool) < n {
		e, err := c.factory()
		if err != nil {
			return fmt.Errorf("campaign: engine %d: %w", len(c.pool), err)
		}
		c.pool = append(c.pool, &poolEngine{eng: e})
	}
	return nil
}

// warm builds engine w's checkpoints on first use, per the spec's
// snapshot policy. An engine whose build degrades falls back to
// scratch runs.
func (c *core) warm(w int) {
	pe := c.pool[w]
	if pe.warmed {
		return
	}
	pe.warmed = true
	se, ok := pe.eng.(sim.SnapshotEngine)
	if !ok || c.interval <= 0 {
		return
	}
	g := se.BuildSnapshots(c.interval, sim.Options{MaxSteps: c.spec.MaxSteps, Reference: c.spec.Reference, Metrics: c.spec.Metrics})
	pe.setup += g.DynInstrs
	c.spec.Metrics.Counter("campaign_snapshot_builds_total").Inc()
	if g.Status == sim.StatusOK {
		pe.snap = se
	}
}

// warmAll builds every pooled engine's checkpoints in parallel.
func (c *core) warmAll() {
	var wg sync.WaitGroup
	for w := range c.pool {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.warm(w)
		}()
	}
	wg.Wait()
}

// setupInstrs is the one-time instruction cost so far: the golden run
// plus every snapshot build.
func (c *core) setupInstrs() int64 {
	n := c.golden.DynInstrs
	for _, pe := range c.pool {
		n += pe.setup
	}
	return n
}

// close releases snapshot storage.
func (c *core) close() {
	for _, pe := range c.pool {
		if pe.snap != nil {
			pe.snap.DropSnapshots()
			pe.snap = nil
		}
	}
}

// execute runs one faulty execution per fault across the engine pool
// (grown to workers(len(faults))) and returns the classified outcome
// for each fault, indexed like faults, plus the executed and
// fast-forwarded dynamic instruction counts of the faulty runs alone
// (golden run and snapshot builds are setupInstrs). Results are
// independent of worker count and scheduling.
func (c *core) execute(faults []sim.Fault) (outcomes []runOutcome, simulated, saved int64, err error) {
	if len(faults) == 0 {
		return nil, 0, 0, nil
	}
	workers := c.workers(len(faults))
	if err := c.grow(workers); err != nil {
		return nil, 0, 0, err
	}

	// Deal faults round-robin into per-worker batches and sort each batch
	// by injection point: consecutive runs then restore from nearby
	// (usually identical) checkpoints, so the snapshot cache stays hot
	// and prefix reuse is maximal. Outcomes land in per-run slots, so
	// neither the batch order nor the worker count can perturb the
	// aggregate.
	batches := make([][]job, workers)
	for i := range faults {
		w := i % workers
		batches[w] = append(batches[w], job{i, faults[i]})
	}
	for _, b := range batches {
		sort.Slice(b, func(i, j int) bool {
			if b[i].fault.TargetIndex != b[j].fault.TargetIndex {
				return b[i].fault.TargetIndex < b[j].fault.TargetIndex
			}
			return b[i].run < b[j].run
		})
	}

	outcomes = make([]runOutcome, len(faults))
	sims := make([]int64, workers)
	saves := make([]int64, workers)
	reg := c.spec.Metrics
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bs := reg.StartSpan(c.spec.TraceSpan, "campaign.batch")
			bs.SetIntAttr("worker", int64(w))
			bs.SetIntAttr("jobs", int64(len(batches[w])))
			var bstart time.Time
			if reg != nil {
				bstart = time.Now()
			}
			c.warm(w)
			eng, se := c.pool[w].eng, c.pool[w].snap
			opts := sim.Options{MaxSteps: c.maxSteps, Reference: c.spec.Reference, Metrics: reg}
			var restores int64
			for _, j := range batches[w] {
				rs := reg.StartSpan(bs, "engine.run")
				var res sim.Result
				var skipped int64
				if se != nil {
					res, skipped = se.RunFrom(j.fault, opts)
				} else {
					res = eng.Run(j.fault, opts)
				}
				sims[w] += res.DynInstrs - skipped
				saves[w] += skipped
				if skipped > 0 { // a restore, or a converged from-scratch run
					restores++
				}
				o := classify(res, c.goldenOut)
				outcomes[j.run] = runOutcome{o, res.InjectedOrigin}
				rs.SetAttr("outcome", o.String())
				rs.End()
			}
			if reg != nil {
				reg.Counter("campaign_snapshot_restores_total").Add(restores)
				if el := time.Since(bstart).Seconds(); el > 0 {
					reg.Gauge(`campaign_worker_injections_per_sec{worker="` + strconv.Itoa(w) + `"}`).
						Set(float64(len(batches[w])) / el)
				}
				reg.Histogram("campaign_batch_seconds").Observe(time.Since(bstart))
			}
			bs.End()
		}()
	}
	wg.Wait()

	for w := 0; w < workers; w++ {
		simulated += sims[w]
		saved += saves[w]
	}
	return outcomes, simulated, saved, nil
}

// runRange executes runs [rg.Lo, rg.Hi) of the full campaign — fault i
// is faultForRun(seed, i, injectable) — and tallies them into a shard
// result with per-run records (SetupInstrs zero). Run tallies its whole
// campaign as the single range [0, Runs).
func (c *core) runRange(rg ShardRange) (ShardResult, error) {
	n := rg.Runs()
	faults := make([]sim.Fault, n)
	for i := range faults {
		faults[i] = faultForRun(c.spec.Seed, int64(rg.Lo+i), c.golden.InjectableInstrs)
	}
	outcomes, simulated, saved, err := c.execute(faults)
	if err != nil {
		return ShardResult{}, err
	}
	out := ShardResult{
		Range:            rg,
		GoldenDyn:        c.golden.DynInstrs,
		GoldenInjectable: c.golden.InjectableInstrs,
		SimulatedInstrs:  simulated,
		SavedInstrs:      saved,
		Records:          make([]Record, n),
	}
	// Tally in run order: the aggregate is a pure function of the
	// per-run outcomes, independent of worker count and batch
	// scheduling.
	for i, o := range outcomes {
		out.Counts[o.outcome]++
		if o.outcome == OutcomeSDC {
			out.SDCByOrigin[o.origin]++
		}
		out.Records[i] = Record{
			Run:     rg.Lo + i,
			Outcome: o.outcome,
			Origin:  o.origin,
			Target:  faults[i].TargetIndex,
			Bit:     uint8(faults[i].Bit),
		}
	}
	return out, nil
}
