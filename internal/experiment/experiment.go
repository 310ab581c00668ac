// Package experiment reproduces every table and figure of the paper's
// evaluation: Table 1 (benchmark inventory), Figure 2 (cross-layer SDC
// coverage of instruction duplication), Figure 3 (root-cause distribution
// of protection deficiencies), Figure 17 (Flowery vs ID coverage), §7.2
// (runtime overhead) and §7.3 (transform time). See DESIGN.md §5 for the
// experiment index.
package experiment

import (
	"fmt"
	"time"

	"flowery/internal/backend"
	"flowery/internal/bench"
	"flowery/internal/bitmask"
	"flowery/internal/campaign"
	"flowery/internal/dup"
	"flowery/internal/flowery"
	"flowery/internal/interp"
	"flowery/internal/ir"
	"flowery/internal/machine"
	"flowery/internal/shard"
	"flowery/internal/sim"
	"flowery/internal/store"
	"flowery/internal/telemetry"
)

// Levels are the protection levels evaluated throughout the paper.
var Levels = []dup.Level{dup.Level30, dup.Level50, dup.Level70, dup.Level100}

// Config tunes the evaluation scale. The paper uses 3000 injections per
// campaign; the default here is smaller because campaigns run on a
// simulator, and can be raised with cmd/experiments -runs.
type Config struct {
	// Runs is the number of fault injections per campaign.
	Runs int
	// ProfileSamples is the injection count for SDC profiling.
	ProfileSamples int
	// Seed drives all randomness.
	Seed int64
	// Workers bounds campaign parallelism (0 = GOMAXPROCS).
	Workers int
	// Shards partitions every full campaign into this many run ranges
	// (campaign.RunSharded; 0 = unsharded). Outcomes are bit-identical
	// either way — gated by scripts/ci.sh — so this is purely a
	// scheduling/scale knob. Wired from cmd/experiments -shards.
	Shards int
	// ShardPool is where sharded campaigns execute
	// (pipeline.Config.ShardPool; the zero value is in-process). Procs
	// spawns worker processes, which requires the host binary to call
	// shard.MaybeServeWorker at startup; Dial lists socket shard workers
	// (`flowery shard-worker -listen`). Transport only, bit-identical per
	// DESIGN.md §13/§17. Wired from cmd/experiments -shard-workers and
	// -remote-workers.
	ShardPool shard.PoolOpts
	// Pruning selects equivalence-pruned campaigns (campaign.PruneClasses)
	// for every per-level measurement, trading exhaustive injection for
	// extrapolated statistics (DESIGN.md §10). Experiments that study
	// campaign mechanics themselves (ablation, pressure, convergence,
	// campbench) always run full campaigns.
	Pruning campaign.Pruning
	// PilotsPerClass is the pruned campaigns' average per-class pilot
	// budget (0 = DefaultPilotsPerClass when Pruning is enabled).
	PilotsPerClass int
	// MaskStatic composes the bit-level static masking analysis
	// (internal/bitmask) into every pruned campaign: statically proven-
	// masked bit choices are scored benign without injection and the
	// pilot budget shrinks accordingly. Only meaningful with Pruning:
	// classes — validated up front by the CLIs and rejected by
	// campaign.Spec.Validate otherwise. Wired from -maskstatic.
	MaskStatic bool
	// Sections switches every per-level measurement to compositional
	// per-section campaigns (campaign.RunSectioned, DESIGN.md §16):
	// error-propagation summaries are computed per content-hashed
	// section and composed into whole-program estimates, with summaries
	// of unchanged sections recalled from the artifact store across
	// processes. Composes with Pruning and MaskStatic; statistics are
	// stratified estimates like pruned campaigns'. Wired from -sections.
	Sections bool
	// Reference pins every simulated run to the engines' reference
	// interpretation loop instead of their predecoded fast cores
	// (sim.Options.Reference). Results are bit-identical; only the wall
	// clock changes. Exposed as cmd/experiments -refcore for the ci.sh
	// core-equivalence gate.
	Reference bool
	// Telemetry, when non-nil, is the registry the whole study reports
	// into: pipeline stage counters and spans, campaign counters, engine
	// run metrics. Wired from cmd/experiments -metrics/-trace and
	// cmd/flowery; nil keeps every layer on the no-op sink.
	Telemetry *telemetry.Registry
	// Artifacts, when non-nil, is the persistent campaign-artifact store
	// threaded into the study's pipeline (pipeline.Config.Artifacts), so
	// a re-run study — or the daemon's study jobs — recall campaign
	// statistics computed by earlier processes instead of re-injecting.
	Artifacts store.Store
}

// DefaultPilotsPerClass is the pilot budget pruned campaigns use when
// Config.PilotsPerClass is unset.
const DefaultPilotsPerClass = 3

// DefaultConfig returns the scale used by cmd/experiments. On a typical
// single core the full 16-benchmark evaluation takes on the order of ten
// minutes at this scale; raise Runs toward the paper's 3000 for tighter
// confidence intervals.
func DefaultConfig() Config {
	return Config{Runs: 600, ProfileSamples: 800, Seed: 2023}
}

// withDefaults fills only the unset scale fields from DefaultConfig.
// Caller-supplied Seed and Workers are always preserved (a zero Runs
// used to replace the whole config, silently discarding them).
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.Runs <= 0 {
		c.Runs = def.Runs
	}
	if c.ProfileSamples <= 0 {
		c.ProfileSamples = def.ProfileSamples
	}
	if c.Pruning == campaign.PruneClasses && c.PilotsPerClass <= 0 {
		c.PilotsPerClass = DefaultPilotsPerClass
	}
	return c
}

// LevelStats holds one protection variant's campaign results at both
// layers plus its fault-free dynamic instruction counts.
type LevelStats struct {
	IR     campaign.Stats
	Asm    campaign.Stats
	DynIR  int64
	DynAsm int64
}

// BenchResult aggregates everything measured for one benchmark.
type BenchResult struct {
	Name   string
	Suite  string
	Domain string

	// Raw (unprotected) campaigns at both layers.
	Raw LevelStats

	// ID is plain instruction duplication per protection level.
	ID map[dup.Level]LevelStats
	// Flowery is duplication plus all three patches per level.
	Flowery map[dup.Level]LevelStats

	// FloweryStats records what the Flowery transform did at full
	// protection, including its compile time (§7.3).
	FloweryStats flowery.Stats
	// StaticInstrs is the static IR instruction count of the
	// fully-duplicated module (the size Flowery scans).
	StaticInstrs int
}

// CoverageIR returns ID SDC coverage measured at IR level.
func (r *BenchResult) CoverageIR(l dup.Level) float64 {
	return campaign.Coverage(r.Raw.IR, r.ID[l].IR)
}

// CoverageAsm returns ID SDC coverage measured at assembly level.
func (r *BenchResult) CoverageAsm(l dup.Level) float64 {
	return campaign.Coverage(r.Raw.Asm, r.ID[l].Asm)
}

// CoverageFlowery returns Flowery SDC coverage at assembly level.
func (r *BenchResult) CoverageFlowery(l dup.Level) float64 {
	return campaign.Coverage(r.Raw.Asm, r.Flowery[l].Asm)
}

// RunBenchmark executes the full chain for one benchmark: build →
// profile → select → duplicate → flowery → lower → campaigns, serially
// and without memoization. It is the reference implementation the
// pipeline path (Study) is equivalence-tested against; new callers
// should prefer NewStudy(cfg).Results.
func RunBenchmark(bm bench.Benchmark, cfg Config) (*BenchResult, error) {
	cfg = cfg.withDefaults()
	res := &BenchResult{
		Name:    bm.Name,
		Suite:   bm.Suite,
		Domain:  bm.Domain,
		ID:      make(map[dup.Level]LevelStats),
		Flowery: make(map[dup.Level]LevelStats),
	}

	profile, err := dup.BuildProfile(bm.Build(), dup.ProfileOptions{
		Samples: cfg.ProfileSamples,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: profile: %w", bm.Name, err)
	}

	res.Raw, err = measure(bm.Build(), cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: raw: %w", bm.Name, err)
	}

	for _, level := range Levels {
		sel := dup.Select(profile, level)

		idMod := bm.Build()
		if err := dup.Apply(idMod, sel); err != nil {
			return nil, fmt.Errorf("%s: dup@%v: %w", bm.Name, level, err)
		}
		idStats, err := measure(idMod, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: ID@%v: %w", bm.Name, level, err)
		}
		res.ID[level] = idStats

		flMod := bm.Build()
		if err := dup.Apply(flMod, sel); err != nil {
			return nil, fmt.Errorf("%s: dup@%v: %w", bm.Name, level, err)
		}
		if level == dup.Level100 {
			res.StaticInstrs = staticInstrs(flMod)
		}
		fst, err := flowery.Apply(flMod, flowery.All())
		if err != nil {
			return nil, fmt.Errorf("%s: flowery@%v: %w", bm.Name, level, err)
		}
		if level == dup.Level100 {
			res.FloweryStats = fst
		}
		flStats, err := measure(flMod, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: flowery@%v: %w", bm.Name, level, err)
		}
		res.Flowery[level] = flStats
	}
	return res, nil
}

// measure runs campaigns for one module at both layers, pruned when the
// config asks for it (campaign.Run forwards pruning specs to RunPruned).
func measure(m *ir.Module, cfg Config) (LevelStats, error) {
	var ls LevelStats

	prog, err := backend.Lower(m)
	if err != nil {
		return ls, err
	}
	spec := campaign.Spec{
		Runs: cfg.Runs, Seed: cfg.Seed, Workers: cfg.Workers,
		Pruning: cfg.Pruning, PilotsPerClass: cfg.PilotsPerClass,
		Reference: cfg.Reference,
		Metrics:   cfg.Telemetry,
	}

	// The masking analyses run over exactly the instances the engines
	// execute (m after lowering, prog), so static indices line up.
	if cfg.MaskStatic {
		spec.Masks = bitmask.AnalyzeIR(m).Masked
	}
	irStats, err := campaign.Run(func() (sim.Engine, error) {
		return interp.New(m), nil
	}, spec)
	if err != nil {
		return ls, err
	}

	if cfg.MaskStatic {
		spec.Masks = bitmask.AnalyzeASM(prog).Masked
	}
	asmStats, err := campaign.Run(func() (sim.Engine, error) {
		return machine.New(m, prog)
	}, spec)
	if err != nil {
		return ls, err
	}

	ls.IR = irStats
	ls.Asm = asmStats
	ls.DynIR = irStats.GoldenDyn
	ls.DynAsm = asmStats.GoldenDyn
	return ls, nil
}

func staticInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// resolveBenchmarks maps names to benchmarks (all 16 when empty),
// preserving order.
func resolveBenchmarks(names []string) ([]bench.Benchmark, error) {
	if len(names) == 0 {
		return bench.All(), nil
	}
	var sel []bench.Benchmark
	for _, n := range names {
		bm, ok := bench.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", n)
		}
		sel = append(sel, bm)
	}
	return sel, nil
}

// RunAll executes the study for the named benchmarks (all 16 if names is
// empty) through the memoized pipeline and its parallel scheduler,
// reporting per-benchmark progress through report (may be nil).
func RunAll(names []string, cfg Config, report func(string, time.Duration)) ([]*BenchResult, error) {
	return NewStudy(cfg).Results(names, report)
}

// RunAllSerial is the pre-pipeline reference path: RunBenchmark for each
// benchmark strictly in order, nothing shared or memoized. Kept so the
// pipeline's equivalence guarantee stays checkable end to end
// (cmd/experiments -pipeline=false, and the tier-2 CI diff).
func RunAllSerial(names []string, cfg Config, report func(string, time.Duration)) ([]*BenchResult, error) {
	bms, err := resolveBenchmarks(names)
	if err != nil {
		return nil, err
	}
	var out []*BenchResult
	for _, bm := range bms {
		start := time.Now()
		r, err := RunBenchmark(bm, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		if report != nil {
			report(bm.Name, time.Since(start))
		}
	}
	return out, nil
}
