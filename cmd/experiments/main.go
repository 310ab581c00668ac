// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §5 for the experiment index):
//
//	experiments                      # everything, default scale
//	experiments -only fig2           # one artifact
//	experiments -bench bfs,lud       # a subset of benchmarks
//	experiments -runs 3000           # the paper's campaign size
//	experiments -telemetry           # print pipeline cache counters
//	experiments -pipeline=false      # legacy serial path (no memoization)
//	experiments -only results -metrics out.json -trace trace.json
//	                                 # compute results, emit telemetry only
//
// All artifacts are served by one memoized artifact pipeline (DESIGN.md
// §9), so overlapping campaigns are executed once no matter how many
// artifacts request them; -pipeline=false selects the pre-pipeline
// serial path, which computes identical results.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"flowery/internal/bench"
	"flowery/internal/campaign"
	"flowery/internal/experiment"
	"flowery/internal/shard"
	"flowery/internal/telemetry"
	"flowery/internal/version"
)

// validArtifacts is every value -only accepts.
var validArtifacts = []string{
	"all", "table1", "fig2", "fig3", "fig17", "overhead", "passtime",
	"ablation", "pressure", "convergence", "campbench", "pipebench",
	"prunebench", "maskbench", "sectionbench", "simbench", "results",
}

func benchByName(n string) (bench.Benchmark, bool) { return bench.ByName(n) }

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func main() {
	// When spawned as a shard worker (FLOWERY_SHARD_WORKER set by the
	// coordinator), serve the worker protocol instead of running
	// experiments.
	shard.MaybeServeWorker()

	runs := flag.Int("runs", 0, "fault injections per campaign (0 = default scale)")
	samples := flag.Int("samples", 0, "profiling injections (0 = default)")
	seed := flag.Int64("seed", 2023, "random seed")
	only := flag.String("only", "all", "artifact: "+strings.Join(validArtifacts[1:], "|")+"|all")
	benches := flag.String("bench", "", "comma-separated benchmark subset (default: all 16)")
	workers := flag.Int("workers", 0, "parallelism: pipeline scheduler width, or campaign workers on the serial path (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "partition every full campaign into this many run ranges (campaign.RunSharded; pipeline path only, 0 = unsharded)")
	shardWorkers := flag.Int("shard-workers", 0, "with -shards: farm shards to this many worker processes (<= 1 executes in-process)")
	remoteWorkers := flag.String("remote-workers", "", "with -shards: comma-separated socket worker addresses (flowery shard-worker -listen) to dial instead of local workers")
	quiet := flag.Bool("q", false, "suppress progress output")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	pipelineOn := flag.Bool("pipeline", true, "serve artifacts from the memoized pipeline (false = legacy serial path)")
	telemetryFlag := flag.Bool("telemetry", false, "print per-stage pipeline cache/wall telemetry to stderr")
	maskStatic := flag.Bool("maskstatic", false, "run every per-level campaign equivalence-pruned with statically proven-masked bits scored benign (internal/bitmask)")
	sections := flag.Bool("sections", false, "run every per-level campaign compositionally (one sub-campaign per program section, composed statistics)")
	refcore := flag.Bool("refcore", false, "pin simulations to the engines' reference loops instead of the predecoded fast cores (bit-identical results, slower)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metricsOut := flag.String("metrics", "", "write the telemetry run report to this file (JSON, or Prometheus text when the path ends in .prom)")
	traceOut := flag.String("trace", "", "write the telemetry span tree to this file (JSON)")
	showVersion := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.Line("experiments"))
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	valid := false
	for _, a := range validArtifacts {
		if *only == a {
			valid = true
			break
		}
	}
	if !valid {
		sorted := append([]string(nil), validArtifacts...)
		sort.Strings(sorted)
		fmt.Fprintf(os.Stderr, "experiments: unknown artifact %q (valid: %s)\n",
			*only, strings.Join(sorted, ", "))
		os.Exit(2)
	}

	cfg := experiment.DefaultConfig()
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *samples > 0 {
		cfg.ProfileSamples = *samples
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Shards = *shards
	if *shardWorkers > 1 {
		cfg.ShardPool.Procs = *shardWorkers
	}
	for _, a := range strings.Split(*remoteWorkers, ",") {
		if a = strings.TrimSpace(a); a != "" {
			cfg.ShardPool.Dial = append(cfg.ShardPool.Dial, a)
		}
	}
	cfg.Reference = *refcore
	if *maskStatic {
		// Masking rides on pruned campaigns, so -maskstatic implies them.
		// The benchmark artifacts control their own campaign sides (full,
		// pruned, or both) and would silently ignore the flag — reject
		// instead.
		switch *only {
		case "ablation", "pressure", "convergence", "campbench", "pipebench",
			"prunebench", "maskbench", "sectionbench", "simbench":
			fmt.Fprintf(os.Stderr, "experiments: -maskstatic does not apply to %q (that artifact controls its own campaign sides)\n", *only)
			os.Exit(2)
		}
		cfg.Pruning = campaign.PruneClasses
		cfg.MaskStatic = true
	}
	if *sections {
		// Sectioned campaigns feed the same per-level statistics, but the
		// benchmark artifacts above control their own campaign sides and
		// sectionbench measures sectioning itself — reject rather than
		// silently ignore. Sharding is also out: sectioned campaigns
		// partition by program section instead of run range.
		switch *only {
		case "ablation", "pressure", "convergence", "campbench", "pipebench",
			"prunebench", "maskbench", "sectionbench", "simbench":
			fmt.Fprintf(os.Stderr, "experiments: -sections does not apply to %q (that artifact controls its own campaign sides)\n", *only)
			os.Exit(2)
		}
		if *shards > 0 {
			fmt.Fprintln(os.Stderr, "experiments: -sections and -shards conflict: sectioned campaigns partition by program section instead of run range")
			os.Exit(2)
		}
		cfg.Sections = true
	}
	if *metricsOut != "" || *traceOut != "" {
		cfg.Telemetry = telemetry.New()
	}

	var names []string
	if *benches != "" {
		names = strings.Split(*benches, ",")
	}

	progress := func(name string, d time.Duration) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "[experiments] %-14s done in %v\n", name, d.Round(time.Millisecond))
		}
	}

	// The study is the shared memoized pipeline every artifact below
	// draws from; nil when -pipeline=false.
	var study *experiment.Study
	if *pipelineOn {
		study = experiment.NewStudy(cfg)
	}
	printTelemetry := func() {
		if *telemetryFlag && study != nil {
			fmt.Fprint(os.Stderr, study.Telemetry().String())
		}
	}
	// Every artifact path below returns through this: close the study's
	// root span and render the -metrics/-trace artifacts.
	defer func() {
		if cfg.Telemetry == nil {
			return
		}
		if study != nil {
			study.Finish()
		}
		if err := telemetry.WriteFiles(cfg.Telemetry, *metricsOut, *traceOut); err != nil {
			fail(err)
		}
	}()

	// resolve maps -bench names (with a per-artifact default) to
	// benchmarks up front, so typos fail before any campaign runs.
	resolve := func(def []string) []bench.Benchmark {
		ns := names
		if len(ns) == 0 {
			ns = def
		}
		var bms []bench.Benchmark
		for _, n := range ns {
			bm, ok := benchByName(n)
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown benchmark %q\n", n)
				os.Exit(1)
			}
			bms = append(bms, bm)
		}
		return bms
	}

	switch *only {
	// The pipeline-memoization benchmark; with -json it emits the
	// BENCH_2.json artifact. Builds its own studies (it measures both
	// modes), so -pipeline does not apply.
	case "pipebench":
		r, err := experiment.RunPipeBench(names, cfg)
		if err != nil {
			fail(err)
		}
		if *jsonOut {
			s, err := experiment.PipeBenchJSON(r)
			if err != nil {
				fail(err)
			}
			fmt.Print(s)
			return
		}
		fmt.Println(experiment.PipeBench(r))
		return

	// The equivalence-pruning cross-validation (full vs pruned campaigns
	// on the same benchmarks); with -json it emits the BENCH_3.json
	// artifact. Builds its own study at its own default campaign scale —
	// unless -runs overrides it — so -pipeline does not apply.
	case "prunebench":
		pcfg := cfg
		pcfg.Runs = *runs // 0 = the artifact's own default scale
		points, err := experiment.RunPruneBench(names, nil, pcfg)
		if err != nil {
			fail(err)
		}
		if *jsonOut {
			data, err := experiment.PruneBenchJSON(points, pcfg)
			if err != nil {
				fail(err)
			}
			os.Stdout.Write(data)
			fmt.Println()
			return
		}
		fmt.Println(experiment.PruneBench(points))
		return

	// The static bit-masking cross-validation (full vs pruned vs
	// pruned+masked campaigns, plus an injection probe of proven-masked
	// bits); with -json it emits the BENCH_6.json artifact. Builds its
	// own study at its own default campaign scale — unless -runs
	// overrides it — so -pipeline does not apply.
	case "maskbench":
		mcfg := cfg
		mcfg.Runs = *runs // 0 = the artifact's own default scale
		points, err := experiment.RunMaskBench(names, nil, mcfg)
		if err != nil {
			fail(err)
		}
		if *jsonOut {
			data, err := experiment.MaskBenchJSON(points, mcfg)
			if err != nil {
				fail(err)
			}
			os.Stdout.Write(data)
			fmt.Println()
			return
		}
		fmt.Println(experiment.MaskBench(points))
		return

	// The compositional-campaign benchmark (full re-analysis vs
	// per-section incremental recomputation after a one-function edit,
	// plus the budgeted per-section protection placement); with -json it
	// emits the BENCH_7.json artifact. Builds its own study at its own
	// default campaign scale — unless -runs overrides it — so -pipeline
	// does not apply.
	case "sectionbench":
		scfg := cfg
		scfg.Runs = *runs // 0 = the artifact's own default scale
		points, err := experiment.RunSectionBench(names, scfg)
		if err != nil {
			fail(err)
		}
		if *jsonOut {
			data, err := experiment.SectionBenchJSON(points, scfg)
			if err != nil {
				fail(err)
			}
			os.Stdout.Write(data)
			fmt.Println()
			return
		}
		fmt.Println(experiment.SectionBench(points))
		return

	// The campaign-size convergence study; campaigns at every size share
	// the study's compiled modules.
	case "convergence":
		var results []*experiment.ConvergenceResult
		for _, bm := range resolve([]string{"lud"}) {
			start := time.Now()
			var r *experiment.ConvergenceResult
			var err error
			if study != nil {
				r, err = study.Convergence(bm)
			} else {
				r, err = experiment.RunConvergence(bm, cfg)
			}
			if err != nil {
				fail(err)
			}
			results = append(results, r)
			progress(bm.Name, time.Since(start))
		}
		fmt.Println(experiment.Convergence(results))
		printTelemetry()
		return

	// The engine-throughput benchmark (reference loop vs predecoded fast
	// core) intentionally runs both cores on identical inputs, so -refcore
	// does not apply; with -json it emits the BENCH_4.json artifact.
	case "simbench":
		var perfs []experiment.SimPerf
		for _, bm := range resolve([]string{"crc32", "susan"}) {
			start := time.Now()
			ps, err := experiment.RunSimBench(bm, cfg)
			if err != nil {
				fail(err)
			}
			perfs = append(perfs, ps...)
			progress(bm.Name, time.Since(start))
		}
		if *jsonOut {
			data, err := experiment.SimBenchJSON(perfs, cfg)
			if err != nil {
				fail(err)
			}
			os.Stdout.Write(data)
			fmt.Println()
			return
		}
		fmt.Println(experiment.SimBench(perfs))
		return

	// The campaign-throughput benchmark (scratch vs checkpoint
	// fast-forward) intentionally re-runs identical campaigns under both
	// snapshot policies, so it never goes through the cache; with -json
	// it emits the BENCH_1.json artifact.
	case "campbench":
		var perfs []experiment.CampaignPerf
		for _, bm := range resolve([]string{"susan"}) {
			start := time.Now()
			ps, err := experiment.RunCampaignPerf(bm, cfg)
			if err != nil {
				fail(err)
			}
			perfs = append(perfs, ps...)
			progress(bm.Name, time.Since(start))
		}
		if *jsonOut {
			data, err := experiment.CampaignBenchJSON(perfs, cfg)
			if err != nil {
				fail(err)
			}
			os.Stdout.Write(data)
			fmt.Println()
			return
		}
		fmt.Println(experiment.CampaignBench(perfs))
		return

	// The register-pressure sweep lowers the shared module artifacts
	// under each scratch budget.
	case "pressure":
		var results []*experiment.PressureResult
		for _, bm := range resolve([]string{"bfs", "susan"}) {
			start := time.Now()
			var r *experiment.PressureResult
			var err error
			if study != nil {
				r, err = study.Pressure(bm)
			} else {
				r, err = experiment.RunPressure(bm, cfg)
			}
			if err != nil {
				fail(err)
			}
			results = append(results, r)
			progress(bm.Name, time.Since(start))
		}
		fmt.Println(experiment.Pressure(results))
		printTelemetry()
		return

	// The ablation study (patch subsets at full protection) defaults to
	// a representative benchmark subset.
	case "ablation":
		var results []*experiment.AblationResult
		for _, bm := range resolve([]string{"bfs", "lud", "quicksort", "susan"}) {
			start := time.Now()
			var r *experiment.AblationResult
			var err error
			if study != nil {
				r, err = study.Ablation(bm)
			} else {
				r, err = experiment.RunAblation(bm, cfg)
			}
			if err != nil {
				fail(err)
			}
			results = append(results, r)
			progress(bm.Name, time.Since(start))
		}
		fmt.Println(experiment.Ablation(results))
		printTelemetry()
		return
	}

	start := time.Now()
	var results []*experiment.BenchResult
	var err error
	if study != nil {
		results, err = study.Results(names, progress)
	} else {
		results, err = experiment.RunAllSerial(names, cfg, progress)
	}
	if err != nil {
		fail(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "[experiments] total %v (%d runs/campaign, seed %d)\n",
			time.Since(start).Round(time.Millisecond), cfg.Runs, cfg.Seed)
		if saved, simulated := experiment.FastForwardSummary(results); saved > 0 {
			fmt.Fprintf(os.Stderr, "[experiments] checkpoint fast-forward skipped %.1f%% of instruction work (%d of %d instrs)\n",
				float64(saved)/float64(saved+simulated)*100, saved, saved+simulated)
		}
	}
	printTelemetry()

	if *jsonOut {
		data, err := experiment.ToJSON(results, cfg)
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(data)
		fmt.Println()
		return
	}

	artifacts := []struct {
		key    string
		render func([]*experiment.BenchResult) string
	}{
		{"table1", experiment.Table1},
		{"fig2", experiment.Figure2},
		{"fig3", experiment.Figure3},
		{"fig17", experiment.Figure17},
		{"overhead", experiment.Overhead},
		{"passtime", experiment.PassTime},
	}
	for _, a := range artifacts {
		if *only == "all" || *only == a.key {
			fmt.Println(a.render(results))
		}
	}
}
