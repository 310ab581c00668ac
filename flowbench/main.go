// Command flowbench is Flowery's pinned benchmark. One command runs one
// of three workloads, checks every output, and prints every metric by
// name and unit; its last line is one JSON object:
//
//	{"correct": true, "attempted": 48, "failed": 0, "metrics": {"runs_per_s": {"value": 7412.3, "unit": "1/s"}, ...}}
//
// Workloads (the workload seed is an argument; the program only sees
// the specs generated from it):
//
//   - panel-full: full Monte-Carlo campaigns, run cold in-process with
//     snapshots on, over {crc32, susan, patricia} × {ir, asm} ×
//     {raw, protected by dup.ApplyFull}. Exercises the engines and
//     campaign.
//   - panel-estimators: pruned, pruned+masked and sectioned estimates of
//     protected {crc32, patricia} × {ir, asm}. Exercises equiv, bitmask
//     and section, and scores each estimate by its effective runs.
//   - daemon-mixed: a floweryd service (manager, HTTP server on
//     loopback, disk store, shard hub with two socket workers) driven
//     by a closed loop of two api.Client callers over a seeded mix of
//     fresh, repeated, pipe-sharded and record-streaming jobs. Exercises
//     api, service, store, shard and reclog.
//
// With --trace 0 the run is untraced and reports the end-to-end metrics.
// With --trace 1 it runs the same operations twice, untraced and then
// traced, checks that both gave identical outcomes, and reports the
// per-layer metrics from spans the benchmark records around its own
// calls into each layer, plus the tracing overhead. BENCHMARK.json at
// the repository root lists every metric and the layer-to-metric table.
//
// Run it through run.sh, which builds it from the checkout:
//
//	bash flowbench/run.sh --workload panel-full --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"flowery/internal/campaign"
	"flowery/internal/shard"
)

func main() {
	// The daemon's sharded jobs re-execute this binary as pipe workers,
	// and the socket workers are this binary too.
	shard.MaybeServeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation. The scale fields default to the pinned
// benchmark's sizes; the smoke tests shrink them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // scratch directory for the store and the span dump
	commit   string
	source   string // digest of the source tree the binary was built from

	fullPrograms []string // panel-full benchmarks
	panelRuns    int      // injections per panel-full campaign
	estPrograms  []string // panel-estimators benchmarks
	estRuns      int      // population-equivalent size of each estimate
	jobRuns      int      // injections per daemon job
}

// setup_s is the median of setupSamples samples. A sample repeats
// set-up until the set-ups in it have taken minSetupSample and counts
// their mean, so a set-up of a few milliseconds is timed over a span well
// above timer and scheduler noise.
const (
	setupSamples   = 15
	minSetupSample = 100 * time.Millisecond
)

func defaultConfig() config {
	return config{
		fullPrograms: []string{"crc32", "susan", "patricia"},
		panelRuns:    2000,
		estPrograms:  []string{"crc32", "patricia"},
		estRuns:      2000,
		jobRuns:      200,
	}
}

var workloads = []string{"panel-full", "panel-estimators", "daemon-mixed"}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("flowbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "run length: the work is whole passes (job blocks) whose nominal time on a 2-CPU host reaches it")
	traceFlag := fs.Int("trace", 0, "1 = also run the operations traced and report per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "scratch directory (default: a new temporary directory)")
	fs.StringVar(&cfg.commit, "commit", "", "commit the binary was built from, when known")
	fs.StringVar(&cfg.source, "source-digest", "", "digest of the source tree the binary was built from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "flowbench: --trace must be 0 or 1")
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "flowbench: --seconds must be positive")
		return 2
	}
	if cfg.out == "" {
		dir, err := os.MkdirTemp("", "flowbench")
		if err != nil {
			fmt.Fprintln(stderr, "flowbench:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		cfg.out = dir
	}
	return execute(cfg, stdout, stderr)
}

// execute runs one configured workload, prints its result, and returns
// the exit code: 1 when set-up failed (nothing is printed) or when any
// operation or output check failed.
func execute(cfg config, stdout, stderr io.Writer) int {
	res, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "flowbench:", err)
		return 1
	}
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "flowbench: check failed:", e)
	}
	printResult(stdout, cfg, res)
	if res.failed > 0 {
		return 1
	}
	return 0
}

// runWorkload dispatches to one workload.
func runWorkload(cfg config, w io.Writer) (*result, error) {
	switch cfg.workload {
	case "panel-full":
		return runPanel(cfg, w, newPanelFull)
	case "panel-estimators":
		return runPanel(cfg, w, newPanelEstimators)
	case "daemon-mixed":
		return runDaemon(cfg, w)
	}
	return nil, fmt.Errorf("unknown --workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
}

// opResult is one measured operation: a campaign or estimate of a
// panel, or one daemon job.
type opResult struct {
	label      string
	kind       string
	latency    time.Duration // call (panel) or submit → last result line (daemon)
	injections int64         // injections the operation executed
	neff       float64       // effective runs of its estimate
	stats      campaign.Stats
	err        error // the operation failed or one of its output checks did
}

// outcomeFields drops the fields campaign.Stats documents as
// scheduling- and clock-dependent, leaving what must repeat bit for bit.
func outcomeFields(st campaign.Stats) campaign.Stats {
	st.SimulatedInstrs, st.SavedInstrs, st.Elapsed = 0, 0, 0
	return st
}

// diffOutcomes lists the outcome fields in which got differs from want,
// as "Field got≠want" (empty when they agree).
func diffOutcomes(got, want campaign.Stats) string {
	g, w := reflect.ValueOf(outcomeFields(got)), reflect.ValueOf(outcomeFields(want))
	var diffs []string
	for i := 0; i < g.NumField(); i++ {
		if a, b := g.Field(i).Interface(), w.Field(i).Interface(); !reflect.DeepEqual(a, b) {
			diffs = append(diffs, fmt.Sprintf("%s %v≠%v", g.Type().Field(i).Name, a, b))
		}
	}
	return strings.Join(diffs, ", ")
}

// compareOutcomes checks the traced operations against the untraced
// ones, pairwise, and returns one error per mismatch.
func compareOutcomes(untraced, traced []opResult) []error {
	var errs []error
	if len(untraced) != len(traced) {
		return []error{fmt.Errorf("traced run made %d operations, untraced %d", len(traced), len(untraced))}
	}
	for i := range untraced {
		if untraced[i].err != nil || traced[i].err != nil {
			continue // already counted
		}
		if d := diffOutcomes(traced[i].stats, untraced[i].stats); d != "" {
			errs = append(errs, fmt.Errorf("op %d (%s): traced outcome differs from untraced: %s", i, untraced[i].label, d))
		}
	}
	return errs
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run reports.
type result struct {
	attempted int
	failed    int
	errs      []error
	metrics   map[string]metric
	notes     []string // printed above the result line
}

// fail records failed checks.
func (r *result) fail(errs ...error) {
	for _, e := range errs {
		if e != nil {
			r.failed++
			r.errs = append(r.errs, e)
		}
	}
}

// countOps adds a pass's operations to attempted and failed.
func (r *result) countOps(ops []opResult) {
	r.attempted += len(ops)
	for _, op := range ops {
		r.fail(op.err)
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// timeSetup times set-up in setupSamples samples, keeping the last
// result, and returns the median time of one set-up in seconds and the
// number of set-ups made. Earlier results are released with discard,
// outside the timing.
func timeSetup[T any](setup func() (T, error), discard func(T)) (T, float64, int, error) {
	var last T
	var secs []float64
	made := 0
	for k := 0; k < setupSamples; k++ {
		var took time.Duration
		n := 0
		for n == 0 || took < minSetupSample {
			if made > 0 && discard != nil {
				discard(last)
			}
			t0 := time.Now()
			v, err := setup()
			if err != nil {
				return last, 0, made, err
			}
			took += time.Since(t0)
			last = v
			made++
			n++
		}
		secs = append(secs, took.Seconds()/float64(n))
	}
	return last, median(secs), made, nil
}

// endToEnd computes the end-to-end metrics of one untraced pass from its
// operations and the latencies of its jobs: whole passes over the cells
// for the panels, submitted jobs for the daemon.
func endToEnd(res *result, ops []opResult, jobs []time.Duration, wall time.Duration, setupS float64) {
	var inj int64
	var neff float64
	for _, op := range ops {
		if op.err == nil {
			inj += op.injections
			neff += op.neff
		}
	}
	lat := make([]float64, len(jobs))
	for i, d := range jobs {
		lat[i] = float64(d) / float64(time.Millisecond)
	}
	sec := wall.Seconds()
	pct, tail, ok := tailPercentile(lat)
	if ok {
		res.note("job_tail_ms is p%g of %d jobs (%d beyond it)", pct, len(lat), len(lat)-1-rankIndex(pct, len(lat)))
	} else {
		res.note("job_tail_ms is the maximum of %d jobs: fewer than %d lie beyond any percentile", len(lat), minBeyond)
	}
	// Peak memory is printed but not a bounded metric: on
	// panel-estimators it moves by a third between identical runs with
	// where the collector's cycles fall in equiv's allocation bursts.
	res.note("peak resident memory %.1f MB (this process, daemon included)", peakRSSMB())
	res.metrics = map[string]metric{
		"setup_s":              {setupS, "s"},
		"runs_per_s":           {float64(inj) / sec, "1/s"},
		"effective_runs_per_s": {neff / sec, "1/s"},
		"job_p50_ms":           {percentile(lat, 50), "ms"},
		"job_tail_ms":          {tail, "ms"},
		"jobs_per_s":           {float64(len(lat)) / sec, "1/s"},
	}
}

// reportTraced finishes a traced run: it prints the untraced pass's
// end-to-end metrics and the tracing overhead, reports the per-layer
// values v in their place, and writes the spans out.
func (r *result) reportTraced(cfg config, v map[string]float64, ops int, untraced, traced time.Duration, rec *recorder) error {
	overhead := traced - untraced
	v["trace.overhead_s"] = overhead.Seconds()
	v["trace.overhead_frac"] = ratio(overhead.Seconds(), untraced.Seconds())
	r.note("traced: same %d operations in %.3f s; tracing overhead %.3f s (%.1f%%)",
		ops, traced.Seconds(), overhead.Seconds(), 100*v["trace.overhead_frac"])
	for _, n := range sortedNames(r.metrics) {
		r.note("untraced %-29s %14.6g %s", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	r.metrics = layerMetrics(v)
	if err := rec.write(traceFile(cfg)); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.note("spans: %s", traceFile(cfg))
	return nil
}

// peakRSSMB is the benchmark process's peak resident set size. The
// daemon runs in-process, so it is included.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printResult(w io.Writer, cfg config, res *result) {
	commit := cfg.commit
	if commit == "" {
		commit = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					commit = s.Value
				}
			}
		}
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "host: nproc %d GOMAXPROCS %d %s %s/%s commit %s source %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit, orUnknown(cfg.source))
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	failedFrac := 0.0
	if res.attempted > 0 {
		failedFrac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "%-40s %14.6g %s\n", "failed_frac", failedFrac, "ratio")
	for _, n := range sortedNames(res.metrics) {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		panic(err) // a map of finite floats always encodes
	}
	fmt.Fprintln(w, string(line))
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

// opSeed derives operation i's campaign seed from the workload seed. It
// is never zero, which job specs read as "use the default seed".
func opSeed(wseed int64, i int) int64 {
	h := splitmix64(uint64(wseed)) ^ splitmix64(uint64(i)+0x632be59bd9b4e019)
	return int64(splitmix64(h)>>2) + 1
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// traceFile is where a traced run dumps its spans.
func traceFile(cfg config) string {
	return filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
