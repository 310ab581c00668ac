package experiment

import (
	"runtime"
	"strings"
	"sync"
	"time"

	"flowery/internal/asm"
	"flowery/internal/backend"
	"flowery/internal/bench"
	"flowery/internal/campaign"
	"flowery/internal/dup"
	"flowery/internal/flowery"
	"flowery/internal/pipeline"
	"flowery/internal/telemetry"
)

// Study is the pipeline-backed experiment driver: every experiment
// (tables, figures, ablation, pressure, convergence) requests its
// artifacts from one shared memoized pipeline, so overlapping work —
// the same profile across levels, the same duplicated module under ID
// and Flowery, the same campaign under several figures — is computed
// exactly once per process. Experiments themselves become pure renderers
// over the cached artifacts.
//
// Work fans out over (benchmark × variant × level) items through the
// pipeline's bounded-parallel scheduler; results are assembled in input
// order, so output is deterministic regardless of scheduling.
type Study struct {
	cfg  Config
	p    *pipeline.Pipeline
	root *telemetry.Span // the study's root trace span (nil without telemetry)

	mu      sync.Mutex
	results map[string][]*BenchResult
}

// NewStudy builds a study over a fresh memoized pipeline.
func NewStudy(cfg Config) *Study { return newStudy(cfg, false) }

// newStudy optionally disables memoization (the pipebench baseline).
func newStudy(cfg Config, disabled bool) *Study {
	cfg = cfg.withDefaults()
	par := cfg.Workers
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	root := cfg.Telemetry.StartSpan(nil, "study")
	pcfg := pipeline.Config{
		Runs:           cfg.Runs,
		ProfileSamples: cfg.ProfileSamples,
		Seed:           cfg.Seed,
		Parallel:       par,
		// The scheduler supplies the breadth, so individual campaigns
		// run single-threaded; outcome statistics are identical either
		// way (campaign's scheduling-independence contract).
		CampaignWorkers: 1,
		Shards:          cfg.Shards,
		ShardPool:       cfg.ShardPool,
		Disabled:        disabled,
		Reference:       cfg.Reference,
		Artifacts:       cfg.Artifacts,
		Telemetry:       cfg.Telemetry,
		Span:            root,
	}
	if par == 1 {
		// No fan-out to feed — give the one campaign at a time the full
		// worker budget instead.
		pcfg.CampaignWorkers = cfg.Workers
	}
	return &Study{cfg: cfg, p: pipeline.New(pcfg), root: root, results: make(map[string][]*BenchResult)}
}

// Finish ends the study's root trace span. Call it once, after the last
// experiment and before rendering the telemetry report; it is a no-op
// without telemetry.
func (s *Study) Finish() { s.root.End() }

// Config returns the study's (defaults-filled) configuration.
func (s *Study) Config() Config { return s.cfg }

// Telemetry exposes the underlying pipeline's cache counters.
func (s *Study) Telemetry() pipeline.Telemetry { return s.p.Telemetry() }

// Pipeline exposes the underlying artifact pipeline.
func (s *Study) Pipeline() *pipeline.Pipeline { return s.p }

// levelStats assembles one variant's LevelStats from both layers'
// campaigns, equivalence-pruned when the study config asks for it.
func (s *Study) levelStats(src pipeline.Source, v pipeline.Variant) (LevelStats, error) {
	opts := pipeline.CampaignOpts{
		Pruning:        s.cfg.Pruning,
		PilotsPerClass: s.cfg.PilotsPerClass,
		MaskStatic:     s.cfg.MaskStatic,
	}
	run := func(opts pipeline.CampaignOpts) (campaign.Stats, error) {
		if s.cfg.Sections {
			res, err := s.p.CampaignSectioned(src, v, opts)
			return res.Stats, err
		}
		return s.p.Campaign(src, v, opts)
	}
	opts.Layer = pipeline.LayerIR
	irStats, err := run(opts)
	if err != nil {
		return LevelStats{}, err
	}
	opts.Layer = pipeline.LayerAsm
	asmStats, err := run(opts)
	if err != nil {
		return LevelStats{}, err
	}
	return LevelStats{
		IR:     irStats,
		Asm:    asmStats,
		DynIR:  irStats.GoldenDyn,
		DynAsm: asmStats.GoldenDyn,
	}, nil
}

// studyUnit is one (benchmark, variant) work item of Results.
type studyUnit struct {
	bench   int // index into the benchmark list
	variant pipeline.Variant
	isRaw   bool
	flowery bool
	level   dup.Level
}

// Results computes BenchResults for the named benchmarks (all 16 when
// empty) through the pipeline, fanning (benchmark × variant × level)
// items across the scheduler. Assembled results are memoized per name
// set; the underlying artifacts are shared across all name sets. report,
// when non-nil, receives each benchmark's name and the wall-clock span
// its work items covered (spans of different benchmarks overlap).
func (s *Study) Results(names []string, report func(string, time.Duration)) ([]*BenchResult, error) {
	bms, err := resolveBenchmarks(names)
	if err != nil {
		return nil, err
	}
	resolved := make([]string, len(bms))
	for i, bm := range bms {
		resolved[i] = bm.Name
	}
	memoKey := strings.Join(resolved, ",")
	s.mu.Lock()
	if cached, ok := s.results[memoKey]; ok {
		s.mu.Unlock()
		return cached, nil
	}
	s.mu.Unlock()

	var units []studyUnit
	for i := range bms {
		units = append(units, studyUnit{bench: i, variant: pipeline.RawVariant(), isRaw: true})
		for _, l := range Levels {
			units = append(units, studyUnit{bench: i, variant: pipeline.IDVariant(l), level: l})
			units = append(units, studyUnit{
				bench: i, variant: pipeline.FloweryVariant(l, flowery.All()),
				flowery: true, level: l,
			})
		}
	}

	// Per-benchmark wall spans for progress reporting.
	type span struct {
		start   time.Time
		pending int
	}
	spans := make([]span, len(bms))
	perBench := len(units) / len(bms)
	for i := range spans {
		spans[i].pending = perBench
	}
	var spanMu sync.Mutex

	slots := make([]LevelStats, len(units))
	err = pipeline.ForEach(s.p.Config().Parallel, len(units), func(i int) error {
		u := units[i]
		spanMu.Lock()
		if spans[u.bench].start.IsZero() {
			spans[u.bench].start = time.Now()
		}
		spanMu.Unlock()

		ls, err := s.levelStats(pipeline.BenchSource(bms[u.bench]), u.variant)
		slots[i] = ls

		spanMu.Lock()
		spans[u.bench].pending--
		done := spans[u.bench].pending == 0
		elapsed := time.Since(spans[u.bench].start)
		spanMu.Unlock()
		if done && err == nil && report != nil {
			report(bms[u.bench].Name, elapsed)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	out := make([]*BenchResult, len(bms))
	for i, bm := range bms {
		out[i] = &BenchResult{
			Name:    bm.Name,
			Suite:   bm.Suite,
			Domain:  bm.Domain,
			ID:      make(map[dup.Level]LevelStats),
			Flowery: make(map[dup.Level]LevelStats),
		}
	}
	for i, u := range units {
		switch {
		case u.isRaw:
			out[u.bench].Raw = slots[i]
		case u.flowery:
			out[u.bench].Flowery[u.level] = slots[i]
		default:
			out[u.bench].ID[u.level] = slots[i]
		}
	}
	// §7.3 metadata: static size of the fully-duplicated module and the
	// Flowery transform statistics at full protection. Cache hits — the
	// modules were produced for the campaigns above.
	for i, bm := range bms {
		src := pipeline.BenchSource(bm)
		n, err := s.p.StaticInstrs(src, pipeline.IDVariant(dup.Level100))
		if err != nil {
			return nil, err
		}
		out[i].StaticInstrs = n
		fst, err := s.p.FloweryStats(src, pipeline.FloweryVariant(dup.Level100, flowery.All()))
		if err != nil {
			return nil, err
		}
		out[i].FloweryStats = fst
	}

	s.mu.Lock()
	s.results[memoKey] = out
	s.mu.Unlock()
	return out, nil
}

// ablationVariants mirrors ablationConfigs as pipeline variants: full
// duplication, optionally patched. The zero Options config is plain
// full duplication (no Flowery node at all), matching the legacy path.
func ablationVariants() []pipeline.Variant {
	out := make([]pipeline.Variant, 0, len(ablationConfigs))
	for _, ac := range ablationConfigs {
		if ac.Opts == (flowery.Options{}) {
			out = append(out, pipeline.FullIDVariant())
		} else {
			out = append(out, pipeline.FullFloweryVariant(ac.Opts))
		}
	}
	return out
}

// Ablation measures one benchmark under every patch subset through the
// pipeline (the raw baseline and the "Flowery (all)" campaign are shared
// with any other experiment that needs them).
func (s *Study) Ablation(bm bench.Benchmark) (*AblationResult, error) {
	src := pipeline.BenchSource(bm)
	variants := append([]pipeline.Variant{pipeline.RawVariant()}, ablationVariants()...)
	stats := make([]campaign.Stats, len(variants))
	err := pipeline.ForEach(s.p.Config().Parallel, len(variants), func(i int) error {
		st, err := s.p.Campaign(src, variants[i], pipeline.CampaignOpts{Layer: pipeline.LayerAsm})
		stats[i] = st
		return err
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{
		Name: bm.Name,
		Raw:  stats[0],
		ID:   stats[1], Eager: stats[2], Branch: stats[3], Cmp: stats[4], All: stats[5],
	}, nil
}

// Pressure sweeps the backend's scratch-register count for one fully
// protected benchmark through the pipeline (see RunPressure for what the
// sweep demonstrates). Each scratch value lowers the shared raw and
// fully-duplicated module artifacts under its own backend config.
func (s *Study) Pressure(bm bench.Benchmark) (*PressureResult, error) {
	src := pipeline.BenchSource(bm)
	var scratches []int
	for scratch := backend.MinGPRScratch; scratch <= 9; scratch++ {
		scratches = append(scratches, scratch)
	}
	points := make([]PressurePoint, len(scratches))
	err := pipeline.ForEach(s.p.Config().Parallel, len(scratches), func(i int) error {
		bcfg := backend.Config{GPRScratch: scratches[i]}
		rawStats, err := s.p.Campaign(src, pipeline.RawVariant(),
			pipeline.CampaignOpts{Layer: pipeline.LayerAsm, Backend: bcfg})
		if err != nil {
			return err
		}
		stats, err := s.p.Campaign(src, pipeline.FullIDVariant(),
			pipeline.CampaignOpts{Layer: pipeline.LayerAsm, Backend: bcfg})
		if err != nil {
			return err
		}
		comp, err := s.p.Compiled(src, pipeline.FullIDVariant(), bcfg)
		if err != nil {
			return err
		}
		points[i] = PressurePoint{
			Scratch:          scratches[i],
			StaticStoreSites: comp.Prog.OriginCounts()[asm.OriginStoreReload],
			Stats:            stats,
			Coverage:         campaign.Coverage(rawStats, stats),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &PressureResult{Name: bm.Name, Points: points}, nil
}

// Convergence sweeps campaign sizes for one benchmark through the
// pipeline; the raw and fully-protected compiled modules are built once
// and shared by every campaign size (see RunConvergence).
func (s *Study) Convergence(bm bench.Benchmark) (*ConvergenceResult, error) {
	src := pipeline.BenchSource(bm)
	points := make([]ConvergencePoint, len(ConvergenceSizes))
	err := pipeline.ForEach(s.p.Config().Parallel, len(ConvergenceSizes), func(i int) error {
		runs := ConvergenceSizes[i]
		rawStats, err := s.p.Campaign(src, pipeline.RawVariant(),
			pipeline.CampaignOpts{Layer: pipeline.LayerAsm, Runs: runs})
		if err != nil {
			return err
		}
		protStats, err := s.p.Campaign(src, pipeline.FullIDVariant(),
			pipeline.CampaignOpts{Layer: pipeline.LayerAsm, Runs: runs})
		if err != nil {
			return err
		}
		rate, rlo, rhi := rawStats.SDCRateCI()
		cov, clo, chi := campaign.CoverageCI(rawStats, protStats)
		points[i] = ConvergencePoint{
			Runs: runs, SDCRate: rate, RateLo: rlo, RateHi: rhi,
			Coverage: cov, CovLo: clo, CovHi: chi,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ConvergenceResult{Name: bm.Name, Points: points}, nil
}
