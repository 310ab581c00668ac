// Command flowery is the Swiss-army tool for the protection pipeline:
//
//	flowery list                          # available benchmarks
//	flowery ir bfs                        # print a benchmark's IR
//	flowery protect -level 0.7 bfs        # duplicate (+ -flowery) and print IR
//	flowery asm -protect bfs              # print lowered assembly with origins
//	flowery run -layer asm bfs            # golden run
//	flowery inject -runs 2000 -layer asm -level 1 -flowery bfs
//	                                      # fault-injection campaign
//
// Program arguments name a built-in benchmark or a file containing
// textual IR (as printed by `flowery ir`).
//
// The protect/asm/run/inject subcommands derive their modules through
// the same artifact pipeline as cmd/experiments (internal/pipeline), so
// the CLI exercises exactly the derivation chains the evaluation
// measures.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"flowery/internal/api"
	"flowery/internal/asm"
	"flowery/internal/backend"
	"flowery/internal/bench"
	"flowery/internal/campaign"
	"flowery/internal/dup"
	"flowery/internal/flowery"
	"flowery/internal/ir"
	"flowery/internal/opt"
	"flowery/internal/pipeline"
	"flowery/internal/reclog"
	"flowery/internal/shard"
	"flowery/internal/sim"
	"flowery/internal/telemetry"
	"flowery/internal/version"
)

// telemetryReg and telemetryRoot are the run's registry and root trace
// span when the global -metrics/-trace flags ask for telemetry; every
// subcommand's pipeline reports into them (see protection.pipelineConfig).
var (
	telemetryReg  *telemetry.Registry
	telemetryRoot *telemetry.Span
)

func main() {
	// When spawned as a shard worker (FLOWERY_SHARD_WORKER set by the
	// coordinator) or pointed at one (FLOWERY_SHARD_WORKER_CONNECT),
	// serve the worker protocol instead of parsing flags.
	shard.MaybeServeWorker()

	// Global flags precede the subcommand: flowery -cpuprofile=cpu.out inject ...
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	metricsOut := flag.String("metrics", "", "write the telemetry run report to this file (JSON, or Prometheus text when the path ends in .prom)")
	traceOut := flag.String("trace", "", "write the telemetry span tree to this file (JSON)")
	showVersion := flag.Bool("version", false, "print build identity and exit")
	flag.Usage = func() { usage() }
	flag.Parse()
	if *showVersion {
		fmt.Println(version.Line("flowery"))
		return
	}
	if flag.NArg() < 1 {
		usage()
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]

	if *metricsOut != "" || *traceOut != "" {
		telemetryReg = telemetry.New()
		telemetryRoot = telemetryReg.StartSpan(nil, "study")
		telemetryRoot.SetAttr("cmd", cmd)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowery:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "flowery:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "flowery:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "flowery:", err)
				os.Exit(1)
			}
		}()
	}

	var err error
	switch cmd {
	case "list":
		for _, b := range bench.All() {
			fmt.Printf("%-14s %-9s %s\n", b.Name, b.Suite, b.Domain)
		}
	case "ir":
		err = cmdIR(args)
	case "opt":
		err = cmdOpt(args)
	case "protect":
		err = cmdProtect(args)
	case "asm":
		err = cmdAsm(args)
	case "run":
		err = cmdRun(args)
	case "inject":
		err = cmdInject(args)
	case "remote":
		err = cmdRemote(args)
	case "shard-worker":
		// Socket worker mode (-connect/-listen). Spawned workers run as
		// `flowery shard-worker` too, so the mode shows in ps output, but
		// MaybeServeWorker above has already served them.
		err = cmdShardWorker(args)
	default:
		usage()
	}
	if telemetryReg != nil {
		telemetryRoot.End()
		// A failed subcommand still renders what it collected; its error
		// stays the one reported.
		if werr := telemetry.WriteFiles(telemetryReg, *metricsOut, *traceOut); err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowery:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: flowery [-cpuprofile f] [-memprofile f] {list|ir|opt|protect|asm|run|inject|remote|shard-worker} [flags] <benchmark|file.ir>")
	os.Exit(2)
}

// cmdOpt runs the mid-end optimizer and prints the result. Running it
// before `protect` is the correct pipeline order; running it after
// nullifies the protection (see internal/opt).
func cmdOpt(args []string) error {
	fs := flag.NewFlagSet("opt", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("opt: need one benchmark or file")
	}
	m, err := loadModule(fs.Arg(0))
	if err != nil {
		return err
	}
	changed := opt.Run(m, opt.Standard())
	if err := m.Verify(); err != nil {
		return fmt.Errorf("optimizer produced invalid IR: %w", err)
	}
	fmt.Fprintf(os.Stderr, "opt: %d pass applications changed the module\n", changed)
	fmt.Print(m.String())
	return nil
}

// loadModule resolves a benchmark name or IR file path to one module.
func loadModule(name string) (*ir.Module, error) {
	if bm, ok := bench.ByName(name); ok {
		return bm.Build(), nil
	}
	src, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("%q is neither a benchmark nor a readable file", name)
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("verify %s: %w", name, err)
	}
	return m, nil
}

// loadSource resolves a benchmark name or IR file path to a pipeline
// source. File sources are keyed by content hash, so two invocations
// over the same text share artifacts and edits change the key.
func loadSource(name string) (pipeline.Source, error) {
	if bm, ok := bench.ByName(name); ok {
		return pipeline.BenchSource(bm), nil
	}
	src, err := os.ReadFile(name)
	if err != nil {
		return pipeline.Source{}, fmt.Errorf("%q is neither a benchmark nor a readable file", name)
	}
	text := string(src)
	m, err := ir.Parse(text)
	if err != nil {
		return pipeline.Source{}, fmt.Errorf("parse %s: %w", name, err)
	}
	if err := m.Verify(); err != nil {
		return pipeline.Source{}, fmt.Errorf("verify %s: %w", name, err)
	}
	sum := sha256.Sum256(src)
	return pipeline.Source{
		Key: fmt.Sprintf("file:%s#%x", name, sum[:4]),
		Build: func() *ir.Module {
			// Already validated above; reparsing is the cheapest way to
			// hand the pipeline a fresh, independent module.
			m, err := ir.Parse(text)
			if err != nil {
				panic(fmt.Sprintf("flowery: reparse %s: %v", name, err))
			}
			return m
		},
	}, nil
}

// protection holds the shared protection flags.
type protection struct {
	level   *float64
	flowery *bool
	samples *int
	seed    *int64
}

func addProtection(fs *flag.FlagSet) protection {
	return protection{
		level:   fs.Float64("level", 1.0, "protection level in (0,1]"),
		flowery: fs.Bool("flowery", false, "apply the Flowery patches after duplication"),
		samples: fs.Int("samples", 800, "profiling injections for selective protection"),
		seed:    fs.Int64("seed", 2023, "random seed"),
	}
}

// pipelineConfig builds the artifact-pipeline configuration the flags
// imply (runs only matters for inject).
func (p protection) pipelineConfig(runs int) pipeline.Config {
	return pipeline.Config{
		Runs:           runs,
		ProfileSamples: *p.samples,
		Seed:           *p.seed,
		Telemetry:      telemetryReg,
		Span:           telemetryRoot,
	}
}

// variant maps the flags to a pipeline variant: full duplication at
// level 1, profile-driven selection below, plus all Flowery patches
// when requested.
func (p protection) variant() pipeline.Variant {
	full := *p.level >= 1
	switch {
	case full && *p.flowery:
		return pipeline.FullFloweryVariant(flowery.All())
	case full:
		return pipeline.FullIDVariant()
	case *p.flowery:
		return pipeline.FloweryVariant(dup.Level(*p.level), flowery.All())
	default:
		return pipeline.IDVariant(dup.Level(*p.level))
	}
}

// reportFlowery prints the transform statistics when -flowery was used.
func (p protection) reportFlowery(pl *pipeline.Pipeline, src pipeline.Source, v pipeline.Variant) error {
	if !*p.flowery {
		return nil
	}
	st, err := pl.FloweryStats(src, v)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "flowery: hoisted %d stores, patched %d branches, isolated %d compares in %v\n",
		st.StoresHoisted, st.BranchesPatched, st.CmpsIsolated, st.Elapsed)
	return nil
}

func cmdIR(args []string) error {
	fs := flag.NewFlagSet("ir", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("ir: need one benchmark or file")
	}
	m, err := loadModule(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Print(m.String())
	return nil
}

func cmdProtect(args []string) error {
	fs := flag.NewFlagSet("protect", flag.ExitOnError)
	p := addProtection(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("protect: need one benchmark or file")
	}
	src, err := loadSource(fs.Arg(0))
	if err != nil {
		return err
	}
	pl := pipeline.New(p.pipelineConfig(0))
	v := p.variant()
	m, err := pl.Module(src, v)
	if err != nil {
		return err
	}
	if err := p.reportFlowery(pl, src, v); err != nil {
		return err
	}
	fmt.Print(m.String())
	return nil
}

func cmdAsm(args []string) error {
	fs := flag.NewFlagSet("asm", flag.ExitOnError)
	prot := fs.Bool("protect", false, "duplicate before lowering")
	p := addProtection(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("asm: need one benchmark or file")
	}
	src, err := loadSource(fs.Arg(0))
	if err != nil {
		return err
	}
	v := pipeline.RawVariant()
	if *prot {
		v = p.variant()
	}
	pl := pipeline.New(p.pipelineConfig(0))
	c, err := pl.Compiled(src, v, backend.Config{})
	if err != nil {
		return err
	}
	fmt.Print(c.Prog.String())
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	layer := fs.String("layer", "asm", "execution layer: ir|asm")
	prot := fs.Bool("protect", false, "duplicate before running")
	p := addProtection(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("run: need one benchmark or file")
	}
	src, err := loadSource(fs.Arg(0))
	if err != nil {
		return err
	}
	v := pipeline.RawVariant()
	if *prot {
		v = p.variant()
	}
	l, err := parseLayer(*layer)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	pl := pipeline.New(p.pipelineConfig(0))
	// Build the engine through the pipeline but run it directly: unlike
	// Golden, a trap or wrong exit should be reported, not failed.
	factory, err := pl.EngineFactory(src, v, l, backend.Config{})
	if err != nil {
		return err
	}
	eng, err := factory()
	if err != nil {
		return err
	}
	res := eng.Run(sim.Fault{}, sim.Options{Metrics: telemetryReg})
	os.Stdout.Write(res.Output)
	fmt.Fprintf(os.Stderr, "status=%v trap=%v ret=%d dynamic=%d injectable=%d\n",
		res.Status, res.Trap, res.RetVal, res.DynInstrs, res.InjectableInstrs)
	return nil
}

func cmdInject(args []string) error {
	fs := flag.NewFlagSet("inject", flag.ExitOnError)
	layer := fs.String("layer", "asm", "execution layer: ir|asm")
	runs := fs.Int("runs", 1000, "number of fault injections")
	prot := fs.Bool("protect", false, "duplicate before injecting")
	prune := fs.Bool("prune", false, "equivalence-pruned campaign: inject pilots per fault class and extrapolate")
	pilots := fs.Int("pilots", 3, "with -prune: average pilot budget per live class (1..8)")
	maskStatic := fs.Bool("maskstatic", false, "with -prune: score statically proven-masked bits benign without injection (internal/bitmask)")
	sections := fs.Bool("sections", false, "compositional campaign: one sub-campaign per program section, unchanged sections recalled from the artifact store")
	workers := fs.Int("workers", 0, "campaign parallelism: engine goroutines per process (0 = GOMAXPROCS); outcomes are identical at any width")
	shards := fs.Int("shards", 0, "partition the campaign into this many run ranges (0 = unsharded; full campaigns only)")
	shardWorkers := fs.Int("shard-workers", 0, "with -shards: farm shards to this many flowery worker processes (<= 1 stays in-process)")
	remoteWorkers := fs.String("remote-workers", "", "with -shards: comma-separated socket worker addresses (flowery shard-worker -listen host:port) to dial for shard execution")
	remoteListen := fs.String("remote-listen", "", "with -shards: listen on this host:port for socket workers dialing in (flowery shard-worker -connect)")
	remoteHeartbeat := fs.Duration("remote-heartbeat", 0, "socket transport liveness interval (0 = 1s): worker ping period and coordinator read-deadline slice")
	remoteRedials := fs.Int("remote-redials", 0, "socket transport reconnect budget per address per outage (0 = 5, negative = no redials)")
	reclogOut := fs.String("reclog", "", "write every run's record to this file as a compact binary log (internal/reclog; full campaigns only)")
	p := addProtection(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("inject: need one benchmark or file")
	}
	remote := *remoteWorkers != "" || *remoteListen != ""
	// Validate the whole flag combination up front through the shared
	// spec validator (internal/api) — the same rules the daemon applies —
	// so an inconsistent invocation fails with one line before any
	// profiling or module derivation starts.
	spec := injectSpec(fs.Arg(0), *layer, *runs, *prune, *pilots, *maskStatic, *sections,
		*workers, *shards, *shardWorkers, remote, *reclogOut != "", *prot, p)
	if err := spec.Normalize(); err != nil {
		return fmt.Errorf("inject: %w", err)
	}
	src, err := loadSource(fs.Arg(0))
	if err != nil {
		return err
	}
	v := pipeline.RawVariant()
	if *prot {
		v = p.variant()
	}
	l, err := parseLayer(*layer)
	if err != nil {
		return fmt.Errorf("inject: %w", err)
	}
	cfg := p.pipelineConfig(*runs)
	cfg.CampaignWorkers = *workers
	cfg.Shards = *shards
	if *shardWorkers > 1 {
		cfg.ShardPool.Procs = *shardWorkers
	}
	if remote {
		cfg.ShardPool.Dial = splitAddrs(*remoteWorkers)
		cfg.ShardPool.Listen = *remoteListen
		cfg.ShardPool.Heartbeat = *remoteHeartbeat
		cfg.ShardPool.Redials = *remoteRedials
	}
	pl := pipeline.New(cfg)
	opts := pipeline.CampaignOpts{Layer: l}
	if *prune {
		opts.Pruning = campaign.PruneClasses
		opts.PilotsPerClass = *pilots
		opts.MaskStatic = *maskStatic
	}
	var logFile *os.File
	var logW *reclog.Writer
	var recErr error
	if *reclogOut != "" {
		logFile, err = os.Create(*reclogOut)
		if err != nil {
			return err
		}
		defer logFile.Close()
		logW = reclog.NewWriter(logFile)
		opts.Records = func(r campaign.Record) {
			if recErr == nil {
				recErr = logW.Write(reclog.Record{
					Run:     int64(r.Run),
					Outcome: uint8(r.Outcome),
					Origin:  uint8(r.Origin),
					Target:  r.Target,
					Bit:     r.Bit,
				})
			}
		}
	}
	var st campaign.Stats
	if *sections {
		res, serr := pl.CampaignSectioned(src, v, opts)
		if serr != nil {
			return serr
		}
		st = res.Stats
	} else if st, err = pl.Campaign(src, v, opts); err != nil {
		return err
	}
	if logW != nil {
		if recErr != nil {
			return fmt.Errorf("inject: writing %s: %w", *reclogOut, recErr)
		}
		if err := logW.Close(); err != nil {
			return fmt.Errorf("inject: finalizing %s: %w", *reclogOut, err)
		}
		fmt.Fprintf(os.Stderr, "inject: wrote %d records to %s\n", st.Runs, *reclogOut)
	}
	printCampaign(st, l)
	return nil
}

// injectSpec maps inject's flags onto the shared job spec so the
// combination is validated by exactly the rules `flowery remote` and
// the daemon apply. The program argument stands in as the benchmark
// name — loadSource resolves names vs files afterward.
func injectSpec(program, layer string, runs int, prune bool, pilots int, maskStatic, sections bool, workers, shards, shardWorkers int, remote, records, prot bool, p protection) api.JobSpec {
	spec := api.JobSpec{
		Benchmark:     program,
		Layer:         layer,
		Runs:          runs,
		Seed:          *p.seed,
		Samples:       *p.samples,
		Protect:       prot,
		Level:         *p.level,
		Flowery:       *p.flowery,
		Prune:         prune,
		MaskStatic:    maskStatic,
		Sections:      sections,
		Workers:       workers,
		Shards:        shards,
		ShardWorkers:  shardWorkers,
		RemoteWorkers: remote,
		Records:       records,
	}
	if prune {
		spec.Pilots = pilots
	}
	return spec
}

// splitAddrs parses a comma-separated address list, dropping empties.
func splitAddrs(csv string) []string {
	var out []string
	for _, a := range strings.Split(csv, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// cmdShardWorker runs a socket shard worker: -connect dials a
// coordinator's -remote-listen or a floweryd -shard-listen hub,
// re-registering after each job; -listen serves dialing coordinators
// (-addr-file resolves host:0 for scripts). Workers spawned by
// -shard-workers never get here: shard.MaybeServeWorker diverts them
// at the top of main.
func cmdShardWorker(args []string) error {
	fs := flag.NewFlagSet("shard-worker", flag.ExitOnError)
	connect := fs.String("connect", "", "dial this coordinator or floweryd -shard-listen hub (host:port)")
	listen := fs.String("listen", "", "serve coordinators on this address (host:port or host:0)")
	addrFile := fs.String("addr-file", "", "with -listen: write the bound address here once listening")
	name := fs.String("name", "", "worker identity registered in the hello (default <hostname>-<pid>; coordinators reject duplicates)")
	heartbeat := fs.Duration("heartbeat", 0, "liveness ping interval (0 = 1s)")
	redials := fs.Int("redials", 0, "with -connect: reconnect budget per outage (0 = 5)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("shard-worker: unexpected arguments %v", fs.Args())
	}
	return shard.RunWorker(shard.WorkerOpts{
		Connect:   *connect,
		Listen:    *listen,
		AddrFile:  *addrFile,
		Name:      *name,
		Heartbeat: *heartbeat,
		Redials:   *redials,
	})
}

// printCampaign renders campaign statistics the way inject always has;
// `flowery remote inject` prints the daemon's stats through the same
// renderer so the two paths are diffable.
func printCampaign(st campaign.Stats, l pipeline.Layer) {
	fmt.Printf("runs=%d golden_dyn=%d injectable=%d\n", st.Runs, st.GoldenDyn, st.GoldenInjectable)
	if st.Sectioned {
		// Sectioned stats are composed, so the injection count is the
		// incremental work actually executed (0 when every section was
		// recalled from the store).
		_, lo, hi := st.SDCRateCI()
		fmt.Printf("sectioned: sections=%d executed=%d recalled=%d pilot_runs=%d  sdc 95%% CI [%.4f, %.4f]\n",
			st.Sections, st.SectionsExecuted, st.SectionsRecalled, st.PilotRuns, lo, hi)
		if st.Classes > 0 {
			fmt.Printf("pruned: classes=%d dead_sites=%d\n", st.Classes, st.DeadSites)
		}
		if st.MaskedBits > 0 {
			fmt.Printf("masked: sites=%d bits=%d statically proven benign (of %d)\n",
				st.MaskedSites, st.MaskedBits, 64*st.GoldenInjectable)
		}
	} else if st.Pruned {
		_, lo, hi := st.SDCRateCI()
		fmt.Printf("pruned: classes=%d dead_sites=%d pilot_runs=%d (%.1fx fewer injections)  sdc 95%% CI [%.4f, %.4f]\n",
			st.Classes, st.DeadSites, st.PilotRuns,
			float64(st.Runs)/float64(st.PilotRuns), lo, hi)
		if st.MaskedBits > 0 {
			fmt.Printf("masked: sites=%d bits=%d statically proven benign (of %d)\n",
				st.MaskedSites, st.MaskedBits, 64*st.GoldenInjectable)
		}
	}
	for o := campaign.Outcome(0); o < campaign.NumOutcomes; o++ {
		fmt.Printf("%-9s %6d  %6.2f%%\n", o, st.Counts[o], st.Rate(o)*100)
	}
	anySDC := false
	for _, c := range st.SDCByOrigin {
		if c > 0 {
			anySDC = true
		}
	}
	if anySDC && l == pipeline.LayerAsm {
		fmt.Println("SDCs by origin:")
		for o := 0; o < asm.NumOrigins; o++ {
			if st.SDCByOrigin[o] > 0 {
				fmt.Printf("  %-9s %6d\n", asm.Origin(o), st.SDCByOrigin[o])
			}
		}
	}
}

func parseLayer(s string) (pipeline.Layer, error) {
	switch s {
	case "ir":
		return pipeline.LayerIR, nil
	case "asm":
		return pipeline.LayerAsm, nil
	}
	return 0, fmt.Errorf("bad layer %q", s)
}
