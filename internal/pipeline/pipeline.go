// Package pipeline is the memoized artifact graph behind the experiment
// stack. Every derived object of the study — built module, SDC profile,
// knapsack selection, duplicated module, Flowery module, lowered program,
// golden run, campaign statistics — is a node keyed by exactly the inputs
// that determine its content (benchmark, protection variant, profile
// seed/samples, backend config, campaign size/seed), so any number of
// experiments can request overlapping artifacts and each is computed at
// most once per process. A bounded-parallel scheduler (ForEach) fans
// independent requests out; the cache's singleflight semantics resolve
// shared dependencies without duplicated work.
//
// Reuse guarantees and the determinism argument are documented in
// DESIGN.md §9. The short form:
//
//   - Module-producing nodes (build, dup, flowery) finish by assigning
//     global addresses; after that the module is shared read-only.
//     Derivations that must mutate (dup.Apply, flowery.Apply,
//     backend.Lower) always operate on a private clone made inside the
//     node's own computation.
//   - Campaign keys omit the worker count and snapshot policy knobs that
//     only affect scheduling: campaign outcome statistics are a pure
//     function of (engine, runs, seed) — package campaign's contract —
//     so a cached result is bit-identical to any recomputation.
package pipeline

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"flowery/internal/asm"
	"flowery/internal/backend"
	"flowery/internal/bench"
	"flowery/internal/bitmask"
	"flowery/internal/campaign"
	"flowery/internal/dup"
	"flowery/internal/flowery"
	"flowery/internal/interp"
	"flowery/internal/ir"
	"flowery/internal/machine"
	"flowery/internal/section"
	"flowery/internal/shard"
	"flowery/internal/sim"
	"flowery/internal/store"
	"flowery/internal/telemetry"
)

// Config fixes the knobs that enter artifact keys (scale and seed) plus
// the scheduling knobs that do not (workers, parallel width).
type Config struct {
	// Runs is the default campaign size (CampaignOpts.Runs overrides).
	Runs int
	// ProfileSamples is the SDC-profiling injection count.
	ProfileSamples int
	// Seed drives profiling and campaign fault derivation.
	Seed int64
	// MaxSteps bounds each simulated run (0 = engine default).
	MaxSteps int64
	// CampaignWorkers is the per-campaign parallelism handed to
	// campaign.Run (0 = GOMAXPROCS). Excluded from artifact keys:
	// campaign outcomes are scheduling-independent.
	CampaignWorkers int
	// Shards partitions every full (non-pruned) campaign into this many
	// contiguous run ranges executed via campaign.RunSharded (0 =
	// unsharded campaign.Run). The shard count enters campaign keys
	// (`|shards=N`) so sharded and unsharded requests never coalesce
	// while the bit-identity gate compares them; pruned campaigns ignore
	// it (they stratify instead of sharding).
	Shards int
	// ShardProcs farms the shards out to this many worker processes
	// (internal/shard) instead of executing them in-process; values <= 1
	// keep execution in-process. Excluded from artifact keys: like
	// CampaignWorkers it only changes scheduling, never outcomes.
	ShardProcs int
	// ShardCommand overrides the worker argv (default: re-execute this
	// binary, relying on shard.MaybeServeWorker). Excluded from keys.
	ShardCommand []string
	// RemoteWorkers lists socket shard-worker addresses (host:port,
	// workers started with `flowery shard-worker -listen`) a sharded
	// campaign dials instead of spawning local worker processes
	// (shard.RemotePool). Requires Shards > 0. Excluded from artifact
	// keys: the transport moves execution, never outcomes — the merged
	// statistics are bit-identical to the local path by the dispatcher's
	// first-result-wins contract (DESIGN.md §17).
	RemoteWorkers []string
	// RemoteListen, when non-empty, has the coordinator listen on this
	// host:port for workers dialing in with `-connect`. Excluded from
	// keys.
	RemoteListen string
	// RemoteHub supplies workers pre-registered with a daemon's
	// -shard-listen hub (floweryd). Excluded from keys.
	RemoteHub *shard.Hub
	// RemoteHeartbeat, RemoteHeartbeatMiss, and RemoteRedials tune the
	// socket transport's liveness and reconnect policy (zero = the shard
	// package defaults). Excluded from keys.
	RemoteHeartbeat     time.Duration
	RemoteHeartbeatMiss int
	RemoteRedials       int
	// Parallel is the scheduler width users of ForEach should pass
	// (0 = GOMAXPROCS). Recorded here so studies and their sub-sweeps
	// agree on one budget.
	Parallel int
	// Disabled turns memoization off: every request recomputes its full
	// chain. Used to measure what the cache buys (cmd/experiments
	// -only pipebench) and to model the legacy per-artifact cost.
	Disabled bool
	// Reference pins every simulated run to the engines' reference
	// interpretation loop (campaign.Spec.Reference / sim.Options.
	// Reference). Outcomes are bit-identical either way; it enters
	// artifact keys anyway so equivalence gates comparing the two cores
	// never coalesce their campaigns.
	Reference bool
	// Artifacts, when non-nil, is the persistent artifact tier behind the
	// in-memory cache: campaign statistics (the expensive leaf artifacts)
	// are recalled from it before being computed and stored into it after
	// a computation, under exactly the in-memory cache's key strings.
	// Shared across pipelines — and, with store.Disk, across processes —
	// it is what lets cmd/floweryd serve a repeated spec without
	// re-running a single injection. Excluded from artifact keys: the
	// store never changes an artifact, only where it is recalled from
	// (gated by the memory-vs-disk bit-identity test in store_test.go).
	Artifacts store.Store
	// Telemetry, when non-nil, is the registry the pipeline reports into:
	// per-stage cache counters and wall histograms, per-miss stage spans,
	// and — forwarded through campaign.Spec and sim.Options — campaign
	// and engine metrics. When nil, the pipeline keeps its stage counters
	// in a private registry (so Telemetry() always works) but records no
	// spans and leaves campaigns and engines un-instrumented. Excluded
	// from artifact keys: observation never changes an artifact.
	Telemetry *telemetry.Registry
	// Span, when non-nil, parents every stage span (a study's root span).
	Span *telemetry.Span
}

// Pipeline owns the artifact cache. One Pipeline per study/process; all
// experiments share it so their artifact requests coalesce.
type Pipeline struct {
	cfg   Config
	reg   *telemetry.Registry // cfg.Telemetry, or private when nil
	cache *cache

	simulated *telemetry.Counter
	saved     *telemetry.Counter
	pilots    *telemetry.Counter

	storeHits   *telemetry.Counter
	storeMisses *telemetry.Counter
	storeErrors *telemetry.Counter
}

// New returns an empty pipeline.
func New(cfg Config) *Pipeline {
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	return &Pipeline{
		cfg:         cfg,
		reg:         reg,
		cache:       newCache(cfg.Disabled, reg, cfg.Telemetry, cfg.Span),
		simulated:   reg.Counter("pipeline_instrs_simulated_total"),
		saved:       reg.Counter("pipeline_instrs_saved_total"),
		pilots:      reg.Counter("pipeline_pilot_runs_total"),
		storeHits:   reg.Counter("pipeline_store_hits_total"),
		storeMisses: reg.Counter("pipeline_store_misses_total"),
		storeErrors: reg.Counter("pipeline_store_errors_total"),
	}
}

// Registry returns the registry the pipeline reports into — the one
// from Config.Telemetry, or the private registry standing in for it.
func (p *Pipeline) Registry() *telemetry.Registry { return p.reg }

// Config returns the pipeline's configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Source names a module generator. Key must uniquely identify the
// generated content (two sources with equal keys are assumed to build
// identical modules); Build must return a fresh, independent module on
// every call.
type Source struct {
	Key   string
	Build func() *ir.Module
}

// BenchSource adapts a registered benchmark.
func BenchSource(bm bench.Benchmark) Source {
	return Source{Key: "bench:" + bm.Name, Build: bm.Build}
}

// VariantKind enumerates the protection configurations a module can be
// derived into.
type VariantKind uint8

const (
	// KindRaw is the unprotected program.
	KindRaw VariantKind = iota
	// KindID is profile-driven selective duplication at a level.
	KindID
	// KindFlowery is KindID plus a set of Flowery patches.
	KindFlowery
	// KindFullID duplicates every duplicable instruction (no profile).
	KindFullID
	// KindFullFlowery is KindFullID plus a set of Flowery patches.
	KindFullFlowery
)

// Variant is a protection configuration. Level is meaningful for
// KindID/KindFlowery; Opts for KindFlowery/KindFullFlowery.
type Variant struct {
	Kind  VariantKind
	Level dup.Level
	Opts  flowery.Options
}

// RawVariant is the unprotected program.
func RawVariant() Variant { return Variant{Kind: KindRaw} }

// IDVariant is selective instruction duplication at level l.
func IDVariant(l dup.Level) Variant { return Variant{Kind: KindID, Level: l} }

// FloweryVariant is IDVariant(l) plus the given Flowery patches.
func FloweryVariant(l dup.Level, o flowery.Options) Variant {
	return Variant{Kind: KindFlowery, Level: l, Opts: o}
}

// FullIDVariant duplicates every duplicable instruction.
func FullIDVariant() Variant { return Variant{Kind: KindFullID} }

// FullFloweryVariant is FullIDVariant plus the given Flowery patches.
func FullFloweryVariant(o flowery.Options) Variant {
	return Variant{Kind: KindFullFlowery, Opts: o}
}

// baseVariant returns the duplication-only variant a Flowery variant
// derives from.
func (v Variant) baseVariant() Variant {
	if v.Kind == KindFlowery {
		return IDVariant(v.Level)
	}
	return FullIDVariant()
}

func optsKey(o flowery.Options) string {
	var sb strings.Builder
	if o.EagerStore {
		sb.WriteByte('e')
	}
	if o.PostponedBranch {
		sb.WriteByte('b')
	}
	if o.AntiCmp {
		sb.WriteByte('c')
	}
	if sb.Len() == 0 {
		return "none"
	}
	return sb.String()
}

// key renders the variant's content key. Profile-driven variants embed
// the profiling knobs because the knapsack selection (and therefore the
// module) depends on them.
func (v Variant) key(cfg Config) string {
	switch v.Kind {
	case KindRaw:
		return "raw"
	case KindID:
		return fmt.Sprintf("id@%g(seed=%d,samples=%d)", float64(v.Level), cfg.Seed, cfg.ProfileSamples)
	case KindFlowery:
		return fmt.Sprintf("fl@%g(seed=%d,samples=%d)+%s", float64(v.Level), cfg.Seed, cfg.ProfileSamples, optsKey(v.Opts))
	case KindFullID:
		return "full"
	case KindFullFlowery:
		return "fullfl+" + optsKey(v.Opts)
	default:
		return fmt.Sprintf("kind%d?", v.Kind)
	}
}

func (p *Pipeline) modKey(src Source, v Variant) string {
	return src.Key + "|" + v.key(p.cfg)
}

// Layer selects the execution layer of a golden run or campaign.
type Layer uint8

const (
	LayerIR Layer = iota
	LayerAsm
)

func (l Layer) String() string {
	if l == LayerIR {
		return "ir"
	}
	return "asm"
}

// Profile returns the per-instruction SDC profile of the unprotected
// program, computed once per (source, seed, samples).
func (p *Pipeline) Profile(src Source) (*dup.Profile, error) {
	key := fmt.Sprintf("profile|%s|seed=%d|samples=%d", src.Key, p.cfg.Seed, p.cfg.ProfileSamples)
	val, err := p.cache.do(StageProfile, key, func(_ *telemetry.Span) (any, error) {
		raw, err := p.Module(src, RawVariant())
		if err != nil {
			return nil, err
		}
		return dup.BuildProfile(raw, dup.ProfileOptions{
			Samples:  p.cfg.ProfileSamples,
			Seed:     p.cfg.Seed,
			MaxSteps: p.cfg.MaxSteps,
		})
	})
	if err != nil {
		return nil, err
	}
	return val.(*dup.Profile), nil
}

// Selection returns the knapsack selection for level l (indices into
// Module.EnumerateInstrs order, valid for any clone of the source).
func (p *Pipeline) Selection(src Source, l dup.Level) ([]int, error) {
	key := fmt.Sprintf("select|%s|level=%g|seed=%d|samples=%d", src.Key, float64(l), p.cfg.Seed, p.cfg.ProfileSamples)
	val, err := p.cache.do(StageSelect, key, func(_ *telemetry.Span) (any, error) {
		prof, err := p.Profile(src)
		if err != nil {
			return nil, err
		}
		return dup.Select(prof, l), nil
	})
	if err != nil {
		return nil, err
	}
	return val.([]int), nil
}

// floweryModule pairs a patched module with the transform's statistics.
type floweryModule struct {
	mod   *ir.Module
	stats flowery.Stats
}

// Module returns the pristine (pre-lowering) module for a variant. The
// returned module is shared: treat it as read-only. Passes that must
// mutate a module run inside the producing node on a private clone.
func (p *Pipeline) Module(src Source, v Variant) (*ir.Module, error) {
	switch v.Kind {
	case KindRaw:
		val, err := p.cache.do(StageBuild, "module|"+p.modKey(src, v), func(_ *telemetry.Span) (any, error) {
			m := src.Build()
			m.AssignAddresses()
			return m, nil
		})
		if err != nil {
			return nil, err
		}
		return val.(*ir.Module), nil

	case KindID, KindFullID:
		val, err := p.cache.do(StageDup, "module|"+p.modKey(src, v), func(_ *telemetry.Span) (any, error) {
			raw, err := p.Module(src, RawVariant())
			if err != nil {
				return nil, err
			}
			m := ir.CloneModule(raw)
			if v.Kind == KindFullID {
				err = dup.ApplyFull(m)
			} else {
				var sel []int
				sel, err = p.Selection(src, v.Level)
				if err == nil {
					err = dup.Apply(m, sel)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("pipeline: dup %s: %w", p.modKey(src, v), err)
			}
			m.AssignAddresses()
			return m, nil
		})
		if err != nil {
			return nil, err
		}
		return val.(*ir.Module), nil

	case KindFlowery, KindFullFlowery:
		fm, err := p.floweryNode(src, v)
		if err != nil {
			return nil, err
		}
		return fm.mod, nil

	default:
		return nil, fmt.Errorf("pipeline: unknown variant kind %d", v.Kind)
	}
}

func (p *Pipeline) floweryNode(src Source, v Variant) (*floweryModule, error) {
	val, err := p.cache.do(StageFlowery, "module|"+p.modKey(src, v), func(_ *telemetry.Span) (any, error) {
		base, err := p.Module(src, v.baseVariant())
		if err != nil {
			return nil, err
		}
		m := ir.CloneModule(base)
		st, err := flowery.Apply(m, v.Opts)
		if err != nil {
			return nil, fmt.Errorf("pipeline: flowery %s: %w", p.modKey(src, v), err)
		}
		m.AssignAddresses()
		return &floweryModule{mod: m, stats: st}, nil
	})
	if err != nil {
		return nil, err
	}
	return val.(*floweryModule), nil
}

// FloweryStats returns the transform statistics recorded when the
// variant's module was produced (v must be a Flowery variant).
func (p *Pipeline) FloweryStats(src Source, v Variant) (flowery.Stats, error) {
	if v.Kind != KindFlowery && v.Kind != KindFullFlowery {
		return flowery.Stats{}, fmt.Errorf("pipeline: %v is not a flowery variant", v.Kind)
	}
	fm, err := p.floweryNode(src, v)
	if err != nil {
		return flowery.Stats{}, err
	}
	return fm.stats, nil
}

// StaticInstrs returns the static instruction count of the variant's
// module (the size the Flowery transform scans, §7.3).
func (p *Pipeline) StaticInstrs(src Source, v Variant) (int, error) {
	m, err := p.Module(src, v)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n, nil
}

// Compiled pairs a lowered module with its program. Mod is the module
// instance Prog was lowered from (the backend may have appended a
// constant pool), with addresses assigned — the instance engines must be
// constructed against.
type Compiled struct {
	Mod  *ir.Module
	Prog *asm.Program
}

// Compiled lowers the variant's module under the given backend config,
// once per (module, config). The pristine module is cloned first, so one
// module artifact can be lowered under many configurations.
func (p *Pipeline) Compiled(src Source, v Variant, bcfg backend.Config) (*Compiled, error) {
	key := fmt.Sprintf("lower|%s|gpr=%d", p.modKey(src, v), bcfg.GPRScratch)
	val, err := p.cache.do(StageLower, key, func(_ *telemetry.Span) (any, error) {
		pm, err := p.Module(src, v)
		if err != nil {
			return nil, err
		}
		m := ir.CloneModule(pm)
		prog, err := backend.LowerCfg(m, bcfg)
		if err != nil {
			return nil, fmt.Errorf("pipeline: lower %s: %w", key, err)
		}
		m.AssignAddresses()
		return &Compiled{Mod: m, Prog: prog}, nil
	})
	if err != nil {
		return nil, err
	}
	return val.(*Compiled), nil
}

// EngineFactory returns a campaign.EngineFactory for the compiled
// variant at the given layer.
func (p *Pipeline) EngineFactory(src Source, v Variant, layer Layer, bcfg backend.Config) (campaign.EngineFactory, error) {
	c, err := p.Compiled(src, v, bcfg)
	if err != nil {
		return nil, err
	}
	if layer == LayerIR {
		return func() (sim.Engine, error) { return interp.New(c.Mod), nil }, nil
	}
	return func() (sim.Engine, error) { return machine.New(c.Mod, c.Prog) }, nil
}

// Masks returns the bit-level static masking analysis (internal/
// bitmask) of the compiled variant at a layer, computed once per
// (module, backend config, layer). The analysis runs over exactly the
// module instance (IR) or program (asm) the layer's engines execute, so
// its static site indices line up with the campaign fault model. On a
// miss the per-layer telemetry counters bitmask_sites_total,
// bitmask_choices_masked_total, and bitmask_choices_total record what
// the analysis proved.
func (p *Pipeline) Masks(src Source, v Variant, layer Layer, bcfg backend.Config) (*bitmask.Analysis, error) {
	key := fmt.Sprintf("mask|%s|%s|gpr=%d", p.modKey(src, v), layer, bcfg.GPRScratch)
	val, err := p.cache.do(StageMask, key, func(_ *telemetry.Span) (any, error) {
		c, err := p.Compiled(src, v, bcfg)
		if err != nil {
			return nil, err
		}
		var a *bitmask.Analysis
		if layer == LayerIR {
			a = bitmask.AnalyzeIR(c.Mod)
		} else {
			a = bitmask.AnalyzeASM(c.Prog)
		}
		l := layer.String()
		p.reg.Counter(`bitmask_sites_total{layer="` + l + `"}`).Add(a.Sites)
		p.reg.Counter(`bitmask_choices_masked_total{layer="` + l + `"}`).Add(a.MaskedChoices)
		p.reg.Counter(`bitmask_choices_total{layer="` + l + `"}`).Add(a.TotalChoices)
		return a, nil
	})
	if err != nil {
		return nil, err
	}
	return val.(*bitmask.Analysis), nil
}

// Golden returns the fault-free run of the compiled variant at a layer.
func (p *Pipeline) Golden(src Source, v Variant, layer Layer, bcfg backend.Config) (sim.Result, error) {
	key := fmt.Sprintf("golden|%s|%s|gpr=%d|maxsteps=%d", p.modKey(src, v), layer, bcfg.GPRScratch, p.cfg.MaxSteps)
	val, err := p.cache.do(StageGolden, key, func(_ *telemetry.Span) (any, error) {
		factory, err := p.EngineFactory(src, v, layer, bcfg)
		if err != nil {
			return nil, err
		}
		eng, err := factory()
		if err != nil {
			return nil, err
		}
		res := eng.Run(sim.Fault{}, sim.Options{MaxSteps: p.cfg.MaxSteps, Reference: p.cfg.Reference, Metrics: p.cfg.Telemetry})
		if res.Status != sim.StatusOK {
			return nil, fmt.Errorf("pipeline: golden %s: %v (%v)", key, res.Status, res.Trap)
		}
		return res, nil
	})
	if err != nil {
		return sim.Result{}, err
	}
	return val.(sim.Result), nil
}

// CampaignOpts tunes one campaign request beyond the pipeline defaults.
type CampaignOpts struct {
	// Layer is the execution layer.
	Layer Layer
	// Runs overrides Config.Runs when positive.
	Runs int
	// Snapshots is campaign.Spec.Snapshots (0 auto, <0 off, >0 target).
	// Part of the key only because scratch-vs-snapshot benchmarks
	// intentionally measure both; outcomes are identical either way.
	Snapshots int
	// Backend selects the lowering configuration.
	Backend backend.Config
	// Pruning selects equivalence pruning (campaign.RunPruned). Pruned
	// campaigns are distinct artifacts from full ones — they estimate the
	// same statistics from different injections — so the mode and pilot
	// count enter the key.
	Pruning campaign.Pruning
	// PilotsPerClass is campaign.Spec.PilotsPerClass (pruned mode only).
	PilotsPerClass int
	// MaskStatic composes the bit-level static masking analysis (the
	// Masks node) into the pruned plan: statically proven-masked bit
	// choices become an exact zero-pilot stratum and the pilot budget
	// shrinks by the live fraction squared. Requires a pruned campaign
	// (campaign.Spec.Masks carries the same constraint); it changes
	// which injections run, so it enters the key (`|mask=1`).
	MaskStatic bool
	// Records, when non-nil, receives every run's Record (full campaigns
	// only; see campaign.Spec.Records). Observation only and excluded
	// from the key — a cache hit replays no records, so set it only on
	// requests known to miss (fresh-process CLIs like `flowery inject
	// -reclog`).
	Records func(campaign.Record)
	// ShardStream, when non-nil, receives each accepted shard's raw
	// reclog bytes as it completes (remote transport only; see
	// shard.RemoteOpts.Stream). floweryd spills the blobs into its
	// persistent store incrementally instead of buffering records in
	// memory. Observation only and excluded from the key; like Records
	// it bypasses store recall, since a recalled artifact streams
	// nothing.
	ShardStream func(rg campaign.ShardRange, reclog []byte)
}

// Campaign runs (or recalls) a fault-injection campaign for the variant.
// The key captures everything outcome-relevant: module identity, layer,
// backend config, run count, seed, step bound. Worker count is excluded —
// outcome statistics are scheduling-independent by the campaign package's
// contract — so one cached campaign serves callers with any parallelism.
func (p *Pipeline) Campaign(src Source, v Variant, opts CampaignOpts) (campaign.Stats, error) {
	runs := opts.Runs
	if runs <= 0 {
		runs = p.cfg.Runs
	}
	stage := StageCampaign
	key := fmt.Sprintf("campaign|%s|%s|gpr=%d|runs=%d|seed=%d|snap=%d|maxsteps=%d|ref=%t",
		p.modKey(src, v), opts.Layer, opts.Backend.GPRScratch, runs, p.cfg.Seed, opts.Snapshots, p.cfg.MaxSteps, p.cfg.Reference)
	sharded := p.cfg.Shards > 0 && opts.Pruning == campaign.PruneNone
	if sharded {
		key += fmt.Sprintf("|shards=%d", p.cfg.Shards)
	}
	if opts.Pruning != campaign.PruneNone {
		stage = StagePrune
		key += fmt.Sprintf("|prune=%s|k=%d", opts.Pruning, opts.PilotsPerClass)
	}
	if opts.MaskStatic {
		if opts.Pruning == campaign.PruneNone {
			return campaign.Stats{}, fmt.Errorf("pipeline: campaign %s: MaskStatic requires Pruning: classes", key)
		}
		key += "|mask=1"
	}
	val, err := p.cache.do(stage, key, func(sp *telemetry.Span) (any, error) {
		// The persistent artifact tier sits behind the in-memory miss:
		// a stats blob stored by an earlier pipeline (possibly an earlier
		// process) short-circuits the whole derivation chain. Requests
		// carrying a Records sink bypass recall — a recalled artifact
		// replays no records — but still persist what they compute.
		if recalled, ok := p.storeGet(key, opts.Records != nil || opts.ShardStream != nil); ok {
			if sp != nil {
				sp.SetAttr("store", "hit")
			}
			return recalled, nil
		}
		factory, err := p.EngineFactory(src, v, opts.Layer, opts.Backend)
		if err != nil {
			return nil, err
		}
		spec, err := p.campaignSpec(src, v, opts, runs, sp)
		if err != nil {
			return nil, err
		}
		var st campaign.Stats
		if sharded {
			exec, eerr := p.shardExecutor(src, v, opts)
			if eerr != nil {
				return nil, eerr
			}
			st, err = campaign.RunSharded(factory, spec, campaign.ShardOpts{
				Shards: p.cfg.Shards,
				Exec:   exec,
			})
		} else {
			st, err = campaign.Run(factory, spec)
		}
		if err != nil {
			return nil, fmt.Errorf("pipeline: campaign %s: %w", key, err)
		}
		p.simulated.Add(st.SimulatedInstrs)
		p.saved.Add(st.SavedInstrs)
		if st.Pruned {
			p.pilots.Add(int64(st.PilotRuns))
		}
		p.storePut(key, st)
		return st, nil
	})
	if err != nil {
		return campaign.Stats{}, err
	}
	return val.(campaign.Stats), nil
}

// SectionTable builds the variant's section table at a layer
// (internal/section): the partition of the layer's static instruction
// space into content-hashed functions and loop sub-sections, computed
// once per (module, backend config, layer) over exactly the module
// instance or program the layer's engines execute.
func (p *Pipeline) SectionTable(src Source, v Variant, layer Layer, bcfg backend.Config) (*section.Table, error) {
	key := fmt.Sprintf("sections|%s|%s|gpr=%d", p.modKey(src, v), layer, bcfg.GPRScratch)
	val, err := p.cache.do(StageSectionTable, key, func(_ *telemetry.Span) (any, error) {
		c, err := p.Compiled(src, v, bcfg)
		if err != nil {
			return nil, err
		}
		if layer == LayerIR {
			return section.BuildIR(c.Mod), nil
		}
		return section.BuildASM(c.Prog), nil
	})
	if err != nil {
		return nil, err
	}
	return val.(*section.Table), nil
}

// CampaignSectioned runs (or recalls) a compositional per-section
// campaign (campaign.RunSectioned). The composed whole-program result
// is memoized in-process under a sectioned campaign key; the
// per-section summaries go to the persistent store under keys built
// from the section fingerprint (content hash + dynamic site count +
// plan shape) plus ambient identity (layer, backend config, seed, step
// bound, reference core) — and deliberately NOT the whole-program
// module key, so an edited program recalls every summary of its
// untouched sections across processes and floweryd requests.
func (p *Pipeline) CampaignSectioned(src Source, v Variant, opts CampaignOpts) (campaign.SectionedResult, error) {
	runs := opts.Runs
	if runs <= 0 {
		runs = p.cfg.Runs
	}
	key := fmt.Sprintf("section|%s|%s|gpr=%d|runs=%d|seed=%d|snap=%d|maxsteps=%d|ref=%t",
		p.modKey(src, v), opts.Layer, opts.Backend.GPRScratch, runs, p.cfg.Seed, opts.Snapshots, p.cfg.MaxSteps, p.cfg.Reference)
	if opts.Pruning != campaign.PruneNone {
		key += fmt.Sprintf("|prune=%s|k=%d", opts.Pruning, opts.PilotsPerClass)
	}
	if opts.MaskStatic {
		if opts.Pruning == campaign.PruneNone {
			return campaign.SectionedResult{}, fmt.Errorf("pipeline: campaign %s: MaskStatic requires Pruning: classes", key)
		}
		key += "|mask=1"
	}
	if opts.Records != nil {
		return campaign.SectionedResult{}, fmt.Errorf("pipeline: campaign %s: sectioned campaigns have no per-run records", key)
	}
	// Ambient identity prefix of per-section store keys: everything
	// outcome-relevant that the section fingerprint doesn't carry.
	secPrefix := fmt.Sprintf("secsum|%s|gpr=%d|seed=%d|maxsteps=%d|ref=%t|",
		opts.Layer, opts.Backend.GPRScratch, p.cfg.Seed, p.cfg.MaxSteps, p.cfg.Reference)
	val, err := p.cache.do(StageSection, key, func(sp *telemetry.Span) (any, error) {
		table, err := p.SectionTable(src, v, opts.Layer, opts.Backend)
		if err != nil {
			return nil, err
		}
		factory, err := p.EngineFactory(src, v, opts.Layer, opts.Backend)
		if err != nil {
			return nil, err
		}
		spec, err := p.campaignSpec(src, v, opts, runs, sp)
		if err != nil {
			return nil, err
		}
		res, err := campaign.RunSectioned(factory, spec, campaign.SectionedOpts{
			Table:   table,
			Recall:  func(fp string) ([]byte, bool) { return p.blobGet(secPrefix + fp) },
			Persist: func(fp string, blob []byte) { p.blobPut(secPrefix+fp, blob) },
		})
		if err != nil {
			return nil, fmt.Errorf("pipeline: campaign %s: %w", key, err)
		}
		p.simulated.Add(res.Stats.SimulatedInstrs)
		p.saved.Add(res.Stats.SavedInstrs)
		p.pilots.Add(int64(res.Stats.PilotRuns))
		return &res, nil
	})
	if err != nil {
		return campaign.SectionedResult{}, err
	}
	return *val.(*campaign.SectionedResult), nil
}

// MaskedProbe validates the variant's masking analysis dynamically:
// it injects samples faults drawn from the statically proven-masked
// (site, bit) population at the given layer and reports the agreement
// rate (campaign.MaskedProbe). Probes are validation runs, not
// artifacts — they are never cached or persisted.
func (p *Pipeline) MaskedProbe(src Source, v Variant, opts CampaignOpts, samples int) (campaign.ProbeStats, error) {
	runs := opts.Runs
	if runs <= 0 {
		runs = p.cfg.Runs
	}
	factory, err := p.EngineFactory(src, v, opts.Layer, opts.Backend)
	if err != nil {
		return campaign.ProbeStats{}, err
	}
	// The probe samples the pruned+masked campaign's proven-masked
	// population: always pruned and masked, from scratch, unrecorded.
	probe := CampaignOpts{
		Layer:          opts.Layer,
		Backend:        opts.Backend,
		Pruning:        campaign.PruneClasses,
		PilotsPerClass: max(opts.PilotsPerClass, 1),
		MaskStatic:     true,
	}
	spec, err := p.campaignSpec(src, v, probe, runs, nil)
	if err != nil {
		return campaign.ProbeStats{}, err
	}
	return campaign.MaskedProbe(factory, spec, samples)
}

// campaignSpec is the one place a pipeline campaign's Spec is built:
// the pipeline's seed, step bound, parallelism, core and telemetry,
// the request's snapshot, pruning and record options, and — under
// MaskStatic — the layer's static masks (the Masks node).
func (p *Pipeline) campaignSpec(src Source, v Variant, opts CampaignOpts, runs int, sp *telemetry.Span) (campaign.Spec, error) {
	spec := campaign.Spec{
		Runs:           runs,
		Seed:           p.cfg.Seed,
		MaxSteps:       p.cfg.MaxSteps,
		Workers:        p.cfg.CampaignWorkers,
		Snapshots:      opts.Snapshots,
		Pruning:        opts.Pruning,
		PilotsPerClass: opts.PilotsPerClass,
		Reference:      p.cfg.Reference,
		Metrics:        p.cfg.Telemetry,
		TraceSpan:      sp,
		Records:        opts.Records,
	}
	if opts.MaskStatic {
		a, err := p.Masks(src, v, opts.Layer, opts.Backend)
		if err != nil {
			return campaign.Spec{}, err
		}
		spec.Masks = a.Masked
	}
	return spec, nil
}

// storeGet recalls a campaign artifact from the persistent store.
// skip (a Records request) forces a miss without touching the store's
// hit/miss counters — the request is not answerable from storage.
// Undecodable blobs degrade to a recomputation that overwrites them.
func (p *Pipeline) storeGet(key string, skip bool) (campaign.Stats, bool) {
	if p.cfg.Artifacts == nil || skip {
		return campaign.Stats{}, false
	}
	blob, ok, err := p.cfg.Artifacts.Get(key)
	if err != nil {
		p.storeErrors.Inc()
		return campaign.Stats{}, false
	}
	if !ok {
		p.storeMisses.Inc()
		return campaign.Stats{}, false
	}
	var st campaign.Stats
	if err := json.Unmarshal(blob, &st); err != nil {
		p.storeErrors.Inc()
		p.storeMisses.Inc()
		return campaign.Stats{}, false
	}
	p.storeHits.Inc()
	return st, true
}

// storePut persists a freshly computed campaign artifact. Elapsed is
// zeroed first: it is the one wall-clock-derived Stats field, and the
// stored blob must be a deterministic function of the key so memory-
// and disk-backed runs stay bit-identical. Store failures only count —
// the computation already succeeded.
func (p *Pipeline) storePut(key string, st campaign.Stats) {
	if p.cfg.Artifacts == nil {
		return
	}
	st.Elapsed = 0
	blob, err := json.Marshal(st)
	if err != nil {
		p.storeErrors.Inc()
		return
	}
	if err := p.cfg.Artifacts.Put(key, blob); err != nil {
		p.storeErrors.Inc()
	}
}

// blobGet recalls an opaque artifact blob (a per-section campaign
// summary) from the persistent store, counting hits and misses on the
// same pipeline_store counters as campaign stats so incremental recall
// is observable from telemetry.
func (p *Pipeline) blobGet(key string) ([]byte, bool) {
	if p.cfg.Artifacts == nil {
		return nil, false
	}
	blob, ok, err := p.cfg.Artifacts.Get(key)
	if err != nil {
		p.storeErrors.Inc()
		return nil, false
	}
	if !ok {
		p.storeMisses.Inc()
		return nil, false
	}
	p.storeHits.Inc()
	return blob, true
}

// blobPut persists an opaque artifact blob. Store failures only count —
// the computation already succeeded.
func (p *Pipeline) blobPut(key string, blob []byte) {
	if p.cfg.Artifacts == nil {
		return
	}
	if err := p.cfg.Artifacts.Put(key, blob); err != nil {
		p.storeErrors.Inc()
	}
}

// ProtectionVariant maps the CLI-level protection knobs — a level in
// (0,1] and the Flowery toggle — to the pipeline variant every
// protection-aware entry point (cmd/flowery, the daemon's job service)
// derives modules under: full duplication at level 1, profile-driven
// selection below, plus all Flowery patches when requested.
func ProtectionVariant(level float64, fl bool) Variant {
	full := level >= 1
	switch {
	case full && fl:
		return FullFloweryVariant(flowery.All())
	case full:
		return FullIDVariant()
	case fl:
		return FloweryVariant(dup.Level(level), flowery.All())
	default:
		return IDVariant(dup.Level(level))
	}
}

// shardExecutor builds the executor for a sharded campaign: nil (the
// in-process executor through the engine factory) unless Config asks
// for worker processes — local children over pipes, or the socket
// transport when any remote source (dial list, listen address, hub) is
// configured. Either way the variant's pristine module rides to the
// workers as IR text and is re-derived there exactly the way Compiled
// derives it here. Pool telemetry (worker spawns, shards, steals,
// result bytes, remote connect/redial/re-deal counters) reports into
// Config.Telemetry.
func (p *Pipeline) shardExecutor(src Source, v Variant, opts CampaignOpts) (campaign.ShardExecutor, error) {
	remote := len(p.cfg.RemoteWorkers) > 0 || p.cfg.RemoteListen != "" || p.cfg.RemoteHub != nil
	if !remote && p.cfg.ShardProcs <= 1 && len(p.cfg.ShardCommand) == 0 {
		return nil, nil
	}
	pm, err := p.Module(src, v)
	if err != nil {
		return nil, err
	}
	job := shard.Job{
		Module:     pm.String(),
		Layer:      opts.Layer.String(),
		GPRScratch: opts.Backend.GPRScratch,
	}
	if remote {
		return shard.NewRemotePool(job, shard.RemoteOpts{
			Dial:          p.cfg.RemoteWorkers,
			Listen:        p.cfg.RemoteListen,
			Hub:           p.cfg.RemoteHub,
			Heartbeat:     p.cfg.RemoteHeartbeat,
			HeartbeatMiss: p.cfg.RemoteHeartbeatMiss,
			Redials:       p.cfg.RemoteRedials,
			Stream:        opts.ShardStream,
			Metrics:       p.cfg.Telemetry,
		}), nil
	}
	return shard.NewPool(job, shard.PoolOpts{
		Procs:   p.cfg.ShardProcs,
		Command: p.cfg.ShardCommand,
		Metrics: p.cfg.Telemetry,
	}), nil
}

// Telemetry is a snapshot of the pipeline's per-stage cache counters
// plus campaign instruction totals. It is a view over the pipeline's
// registry (see Config.Telemetry): the same counters appear, under
// their metric names, in a telemetry run report.
type Telemetry struct {
	Stages []StageTelemetry
	// SimulatedInstrs and SavedInstrs total the executed and
	// fast-forwarded instructions across every campaign miss.
	SimulatedInstrs int64
	SavedInstrs     int64
	// PilotRuns totals the injections executed by pruned campaigns.
	PilotRuns int64
}

// Telemetry returns the current counters.
func (p *Pipeline) Telemetry() Telemetry {
	return Telemetry{
		Stages:          p.cache.telemetry(),
		SimulatedInstrs: p.simulated.Value(),
		SavedInstrs:     p.saved.Value(),
		PilotRuns:       p.pilots.Value(),
	}
}

// CampaignsExecuted is the number of campaigns actually run (campaign
// stage misses).
func (t Telemetry) CampaignsExecuted() int64 {
	for _, s := range t.Stages {
		if s.Stage == StageCampaign {
			return s.Misses
		}
	}
	return 0
}

// CacheHits totals reuse across all stages.
func (t Telemetry) CacheHits() int64 {
	var n int64
	for _, s := range t.Stages {
		n += s.Hits
	}
	return n
}

// CacheMisses totals computations across all stages.
func (t Telemetry) CacheMisses() int64 {
	var n int64
	for _, s := range t.Stages {
		n += s.Misses
	}
	return n
}

// String renders the telemetry as the table cmd/experiments prints.
func (t Telemetry) String() string {
	var sb strings.Builder
	sb.WriteString("pipeline telemetry (per artifact stage):\n")
	fmt.Fprintf(&sb, "%-10s %6s %6s %8s %12s\n", "stage", "keys", "hits", "misses", "wall")
	for _, s := range t.Stages {
		fmt.Fprintf(&sb, "%-10s %6d %6d %8d %12s\n",
			s.Stage, s.Keys, s.Hits, s.Misses, s.Wall.Round(time.Millisecond))
	}
	fmt.Fprintf(&sb, "campaigns executed: %d; instructions simulated: %d",
		t.CampaignsExecuted(), t.SimulatedInstrs)
	if total := t.SimulatedInstrs + t.SavedInstrs; total > 0 && t.SavedInstrs > 0 {
		fmt.Fprintf(&sb, " (%.1f%% fast-forwarded)", float64(t.SavedInstrs)/float64(total)*100)
	}
	sb.WriteString("\n")
	return sb.String()
}
