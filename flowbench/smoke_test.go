package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"flowery/internal/api"
	"flowery/internal/shard"
)

func TestMain(m *testing.M) {
	// The daemon's pipe and socket workers re-execute the test binary.
	shard.MaybeServeWorker()
	os.Exit(m.Run())
}

// smokeConfig is a tiny-scale traced run, so one run exercises the
// untraced pass, the traced pass and every output check.
func smokeConfig(t *testing.T, workload string) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 3
	cfg.seconds = 0.1
	cfg.trace = true
	cfg.out = t.TempDir()
	cfg.fullPrograms = []string{"crc32"}
	cfg.panelRuns = 40
	cfg.estPrograms = []string{"crc32"}
	cfg.estRuns = 200
	cfg.jobRuns = 20
	return cfg
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// smokeRun is one run's exit code, output and parsed result line.
type smokeRun struct {
	code           int
	stdout, stderr string
	result         resultLine
}

// runSmoke runs cfg and checks the shape of what it printed: a result
// line with every per-layer metric and at least one operation.
func runSmoke(t *testing.T, cfg config) smokeRun {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := execute(cfg, &stdout, &stderr)
	run := smokeRun{code: code, stdout: stdout.String(), stderr: stderr.String()}
	lines := strings.Split(strings.TrimSpace(run.stdout), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.result); err != nil {
		t.Fatalf("last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", err, run.stdout, run.stderr)
	}
	if run.result.Attempted == 0 {
		t.Error("no operation attempted")
	}
	for _, m := range perLayerMetrics {
		if _, ok := run.result.Metrics[m.name]; !ok {
			t.Errorf("traced run lacks %s", m.name)
		}
	}
	return run
}

// wantCorrect fails the test unless every operation and output check
// passed.
func wantCorrect(t *testing.T, run smokeRun) {
	t.Helper()
	if r := run.result; run.code != 0 || !r.Correct || r.Failed != 0 {
		t.Errorf("exit %d, correct %t, %d of %d failed\nstderr:\n%s", run.code, r.Correct, r.Failed, r.Attempted, run.stderr)
	}
}

// wantPositive fails the test for each named metric that is not above 0.
func wantPositive(t *testing.T, run smokeRun, names ...string) {
	t.Helper()
	for _, name := range names {
		if v := run.result.Metrics[name].Value; v <= 0 {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
}

func TestPanelFullSmoke(t *testing.T) {
	run := runSmoke(t, smokeConfig(t, "panel-full"))
	wantCorrect(t, run)
	wantPositive(t, run, "machine.instrs_per_s", "interp.instrs_per_s", "campaign.golden_s", "dup.apply_s", "backend.lower_s")
	if !strings.Contains(run.stdout, "tracing overhead") || !strings.Contains(run.stdout, "post-fault instrs") {
		t.Error("no tracing overhead or post-fault histogram printed")
	}
}

func TestPanelEstimatorsSmoke(t *testing.T) {
	run := runSmoke(t, smokeConfig(t, "panel-estimators"))
	wantCorrect(t, run)
	wantPositive(t, run, "equiv.trace_s", "equiv.plan_s", "equiv.pilot_runs", "bitmask.analyze_s", "bitmask.masked_bit_frac", "section.build_s", "section.sections_executed")
}

// daemonSmokeConfig runs one block of the job mix, so every job kind
// and every daemon check runs.
func daemonSmokeConfig(t *testing.T) config {
	cfg := smokeConfig(t, "daemon-mixed")
	cfg.seconds = 1
	return cfg
}

// TestDaemonMixedSmoke checks that the daemon workload runs every kind
// of job and measures every daemon layer.
func TestDaemonMixedSmoke(t *testing.T) {
	run := runSmoke(t, daemonSmokeConfig(t))
	wantPositive(t, run, "store.put_bytes", "service.exec_ms_p50.fresh", "service.exec_ms_p50.pipe",
		"api.submit_ms_p50", "reclog.bytes_per_run", "shard.workers_spawned", "pipeline.store_hit_frac")
	if !strings.Contains(run.stdout, "mix fresh") {
		t.Error("no job mix printed")
	}
}

// TestDaemonMixedMatchesPipeline checks the daemon's outputs: every job
// equals the in-process pipeline for its spec, every reclog decodes, and
// the traced pass repeats the untraced one.
func TestDaemonMixedMatchesPipeline(t *testing.T) {
	wantCorrect(t, runSmoke(t, daemonSmokeConfig(t)))
}

// TestDaemonShardedProtectedJobMatchesPipeline submits the sharded job
// daemon-mixed leaves out: crc32/asm protected by duplication, sharded
// over pipe workers. It must give the in-process pipeline's outcome, as
// an unsharded job does. It fails while sharded jobs ship the module to
// the workers as IR text that does not round-trip a protected module.
func TestDaemonShardedProtectedJobMatchesPipeline(t *testing.T) {
	d, err := startDaemon(t.TempDir()+"/store", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	spec := api.JobSpec{Benchmark: "crc32", Layer: "asm", Protect: true, Runs: 20, Seed: 7, Shards: jobShards, ShardWorkers: 2}
	sub, err := d.client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := d.results(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	if diff := diffOutcomes(got, want); diff != "" {
		t.Errorf("sharded daemon job differs from the in-process pipeline: %s", diff)
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, stdout.String())
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the
// metrics this command prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloads)
	}
	res := &result{}
	endToEnd(res, nil, []time.Duration{1}, 1, 1)
	if len(doc.EndToEnd) != len(res.metrics) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the command prints %d", len(doc.EndToEnd), len(res.metrics))
	}
	for _, m := range doc.EndToEnd {
		if got, ok := res.metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): command prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(doc.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the command prints %d", len(doc.PerLayer), len(perLayerMetrics))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), command %s (%s)", i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
}
