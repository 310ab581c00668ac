package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowery/internal/api"
	"flowery/internal/bench"
	"flowery/internal/campaign"
	"flowery/internal/pipeline"
	"flowery/internal/reclog"
	"flowery/internal/service"
	"flowery/internal/shard"
	"flowery/internal/store"
	"flowery/internal/telemetry"
)

// daemon is an in-process floweryd: job manager, HTTP server on
// loopback, disk store in a fresh directory, and a shard hub with two
// socket worker processes parked on it. No job of the stream shards
// over the hub; the comment on the job kinds says why.
type daemon struct {
	dir     string
	disk    *store.Disk
	hub     *shard.Hub
	mgr     *service.Manager
	srv     *http.Server
	served  chan error
	client  *api.Client
	workers []*exec.Cmd
}

// socketWorkers is the number of socket worker processes parked on the
// hub.
const socketWorkers = 2

// jobTimeout bounds every request of a job, so a daemon that stops
// answering fails the job instead of hanging the benchmark. Jobs of the
// stream finish in well under a second.
const jobTimeout = 15 * time.Second

// drainTimeout bounds how long shutting down waits for jobs still
// running in the daemon.
const drainTimeout = 5 * time.Second

// startDaemon brings a daemon up with its store in dir, which must not
// exist yet; stop removes it. With rec set, every store call is traced.
func startDaemon(dir string, rec *recorder) (_ *daemon, err error) {
	d := &daemon{dir: dir}
	defer func() {
		if err != nil {
			d.stop()
		}
	}()
	reg := telemetry.New()
	if d.disk, err = store.OpenDisk(dir, store.DiskOptions{Metrics: reg}); err != nil {
		return nil, err
	}
	var artifacts store.Store = d.disk
	if rec != nil {
		artifacts = tracedStore{inner: d.disk, rec: rec}
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.hub = shard.NewHub(hln, shard.HubOpts{Metrics: reg})
	d.mgr = service.New(service.Config{Artifacts: artifacts, Workers: 2, Telemetry: reg, Hub: d.hub})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.srv = &http.Server{Handler: service.NewServer(d.mgr)}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	d.client = &api.Client{Base: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Timeout: jobTimeout}}
	if err := d.client.WaitHealthy(10 * time.Second); err != nil {
		return nil, err
	}

	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	for i := 0; i < socketWorkers; i++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), shard.EnvWorkerConnect+"="+d.hub.Addr().String())
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting socket worker: %w", err)
		}
		d.workers = append(d.workers, cmd)
	}
	deadline := time.Now().Add(20 * time.Second)
	for d.hub.Workers() < socketWorkers {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("only %d of %d socket workers registered", d.hub.Workers(), socketWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	return d, nil
}

// stop shuts the daemon down, stops the socket worker processes and
// waits for them to end. The pipe worker processes of sharded jobs
// belong to the jobs, which the manager's Close waits for.
func (d *daemon) stop() {
	if d.srv != nil {
		d.srv.Close()
		<-d.served
	}
	if d.mgr != nil {
		// Close waits for running jobs; a job stuck inside the daemon
		// must not hang the benchmark, so stop waiting after a while.
		drained := make(chan struct{})
		go func() {
			d.mgr.Close()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(drainTimeout):
			fmt.Fprintf(os.Stderr, "flowbench: daemon still running jobs %v after shutdown began\n", drainTimeout)
		}
	}
	if d.hub != nil {
		d.hub.Close()
	}
	for _, w := range d.workers {
		w.Process.Kill()
		w.Wait()
	}
	if d.disk != nil {
		d.disk.Close()
	}
	os.RemoveAll(d.dir)
}

// Job kinds of the daemon-mixed stream.
//
// Sharded jobs run on pipe worker processes only; the socket workers
// stay parked on the hub. A job sharded over the hub (RemoteWorkers) does
// not reliably finish: after a campaign completes, its hub claim loop
// goes on taking each worker that parks and refusing it with "job
// complete"; a worker refused after serving exits, so the hub's fleet
// shrinks and a later hub job waits for workers forever.
//
// Every job runs crc32 at the assembly layer. Record jobs run the
// protected program, so the daemon's duplication stage does work; the
// others run the raw program. Sharded jobs ship their module to the
// workers as IR text, and a protected module does not survive that
// round trip (the workers lower a program with two more dynamic
// instructions and report other outcomes), so sharded jobs, and the
// fresh jobs their shard overhead is measured against, run the raw
// program.
const (
	kindFresh   = "fresh"   // a new full campaign: executes and stores
	kindRepeat  = "repeat"  // an earlier spec again: served from the store
	kindPipe    = "pipe"    // a new campaign sharded over 2 pipe worker processes
	kindRecords = "records" // a new campaign streaming per-run records and its reclog
)

// jobBlock is the kind mix of every block of eight consecutive jobs; the
// order within a block is shuffled by the workload seed.
var jobBlock = []string{kindFresh, kindFresh, kindRepeat, kindRepeat, kindRepeat, kindPipe, kindPipe, kindRecords}

// callers is the number of closed-loop clients.
const callers = 2

// jobsPerSecond is the stream's nominal completion rate on a 2-CPU host
// (18 to 22 jobs/s measured). A run makes the whole blocks of jobs whose
// nominal time reaches --seconds, so every run submits the same jobs
// whatever the host's speed at the moment.
const jobsPerSecond = 20

func jobCount(seconds float64) int {
	return len(jobBlock) * max(1, int(math.Ceil(seconds*jobsPerSecond/float64(len(jobBlock)))))
}

// jobShards is the shard count of sharded jobs.
const jobShards = 2

// plannedJob is one job of the stream.
type plannedJob struct {
	kind string
	spec api.JobSpec
	of   int // the repeated job (repeats only)
}

// jobStream generates the seeded job sequence on demand, so a closed
// loop can run for a time budget and a replay can regenerate the same
// prefix.
type jobStream struct {
	seed int64
	runs int

	mu    sync.Mutex
	jobs  []plannedJob
	execd []int // indices of executing jobs a repeat may name
}

func (s *jobStream) get(i int) plannedJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.jobs) <= i {
		s.extend()
	}
	return s.jobs[i]
}

// extend appends one block.
func (s *jobStream) extend() {
	b := len(s.jobs) / len(jobBlock)
	kinds := append([]string(nil), jobBlock...)
	rng := splitmix64(uint64(s.seed)<<8 ^ uint64(b))
	for i := len(kinds) - 1; i > 0; i-- {
		rng = splitmix64(rng)
		j := int(rng % uint64(i+1))
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	if b == 0 {
		// The stream opens with a fresh job so every repeat has an
		// earlier spec to name.
		for i, k := range kinds {
			if k == kindFresh {
				kinds[0], kinds[i] = kinds[i], kinds[0]
				break
			}
		}
	}
	for _, k := range kinds {
		i := len(s.jobs)
		job := plannedJob{kind: k, of: -1}
		if k == kindRepeat {
			rng = splitmix64(rng)
			job.of = s.execd[rng%uint64(len(s.execd))]
			job.spec = s.jobs[job.of].spec
		} else {
			job.spec = api.JobSpec{
				Benchmark: "crc32",
				Layer:     "asm",
				Protect:   k == kindRecords,
				Runs:      s.runs,
				Seed:      opSeed(s.seed, i),
				Workers:   1,
			}
			switch k {
			case kindPipe:
				job.spec.Shards, job.spec.ShardWorkers = jobShards, 2
			case kindRecords:
				job.spec.Records = true
			}
			if k != kindRecords {
				s.execd = append(s.execd, i)
			}
		}
		s.jobs = append(s.jobs, job)
	}
}

// jobTrace is what a traced pass learns about one job besides its
// result.
type jobTrace struct {
	info       api.JobInfo
	submit     time.Duration
	lastLine   time.Time
	metrics    map[string]float64 // the job's /jobs/{id}/metrics page
	reclogSize int
}

// drive runs the closed loop: callers goroutines each submit a job,
// stream its results, and take the next, until jobs 0..count-1 ran or a
// job timed out. Results are indexed by job.
func (d *daemon) drive(stream *jobStream, count int, rec *recorder) ([]opResult, []jobTrace, time.Duration) {
	var (
		next  atomic.Int64
		abort atomic.Bool // a job timed out: the daemon stopped answering
		ops   = make([]opResult, count)
		trs   = make([]jobTrace, count)
		done  = make([]chan struct{}, count)
		wg    sync.WaitGroup
	)
	for i := range done {
		done[i] = make(chan struct{})
	}
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Every job taken runs, so the jobs run are a prefix.
				if abort.Load() {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= count {
					return
				}
				job := stream.get(i)
				if job.of >= 0 {
					<-done[job.of] // a repeat waits until its spec is stored
				}
				t0 := time.Now()
				ops[i], trs[i] = d.runJob(job, rec)
				if ops[i].err != nil && time.Since(t0) >= jobTimeout {
					abort.Store(true)
				}
				close(done[i])
			}
		}()
	}
	wg.Wait()
	n := min(int(next.Load()), count)
	return ops[:n], trs[:n], time.Since(start)
}

// runJob submits one job, streams its results to the end, and for
// record jobs downloads and decodes the reclog. Traced, it also fetches
// the job's lifecycle timestamps and metrics page.
func (d *daemon) runJob(job plannedJob, rec *recorder) (opResult, jobTrace) {
	op := opResult{label: job.kind + "/" + strconv.FormatInt(job.spec.Seed, 10), kind: job.kind, neff: float64(job.spec.Runs)}
	if job.kind != kindRepeat {
		op.injections = int64(job.spec.Runs)
	}
	var tr jobTrace
	js := rec.start("job", 0)
	defer rec.end(js)

	t0 := time.Now()
	s := rec.start("api.Submit", js.ID)
	sub, err := d.client.Submit(job.spec)
	tr.submit = time.Since(t0)
	rec.end(s)
	if err != nil {
		op.err = fmt.Errorf("%s: submit: %w", op.label, err)
		return op, tr
	}

	s = rec.start("api.Results", js.ID)
	records, st, err := d.results(sub.ID)
	tr.lastLine = time.Now()
	rec.end(s)
	op.latency = tr.lastLine.Sub(t0)
	if err != nil {
		op.err = fmt.Errorf("%s: %w", op.label, err)
		return op, tr
	}
	op.stats = st
	if err := checkJob(job, records, st); err != nil {
		op.err = fmt.Errorf("%s: %w", op.label, err)
	}

	if job.spec.Records && op.err == nil {
		s = rec.start("api.Reclog", js.ID)
		raw, err := d.client.Reclog(sub.ID)
		rec.end(s)
		tr.reclogSize = len(raw)
		if err == nil {
			err = checkReclog(raw, job.spec.Runs)
		}
		if err != nil {
			op.err = fmt.Errorf("%s: reclog: %w", op.label, err)
		}
	}

	if rec != nil {
		s = rec.start("api.Job", js.ID)
		tr.info, err = d.client.Job(sub.ID)
		rec.end(s)
		if err == nil {
			s = rec.start("api.Metrics", js.ID)
			var page []byte
			page, err = d.client.Metrics("/jobs/" + sub.ID + "/metrics")
			rec.end(s)
			tr.metrics = parseProm(page)
		}
		if err != nil && op.err == nil {
			op.err = fmt.Errorf("%s: job info: %w", op.label, err)
		}
	}
	return op, tr
}

// results reads a job's NDJSON stream to its terminal line.
func (d *daemon) results(id string) (records int, st campaign.Stats, err error) {
	rs, err := d.client.Results(id)
	if err != nil {
		return 0, st, fmt.Errorf("results: %w", err)
	}
	defer rs.Close()
	for {
		line, err := rs.Next()
		if errors.Is(err, io.EOF) {
			return 0, st, fmt.Errorf("results: stream ended without a terminal line")
		}
		if err != nil {
			return 0, st, fmt.Errorf("results: %w", err)
		}
		switch {
		case line.Record != nil:
			if line.Record.Run != int64(records) {
				return 0, st, fmt.Errorf("results: record line %d names run %d", records, line.Record.Run)
			}
			records++
		case line.Error != "":
			return 0, st, fmt.Errorf("job failed: %s", line.Error)
		case line.Stats != nil:
			return records, *line.Stats, nil
		default:
			return 0, st, fmt.Errorf("results: empty terminal line")
		}
	}
}

// checkJob checks what a job streamed: one record line per run when it
// asked for records, and outcome counts summing to Runs.
func checkJob(job plannedJob, records int, st campaign.Stats) error {
	want := 0
	if job.spec.Records {
		want = job.spec.Runs
	}
	if records != want {
		return fmt.Errorf("streamed %d record lines, want %d", records, want)
	}
	sum := 0
	for _, n := range st.Counts {
		sum += n
	}
	if st.Runs != job.spec.Runs || sum != st.Runs {
		return fmt.Errorf("outcome counts sum to %d over Runs=%d, want %d", sum, st.Runs, job.spec.Runs)
	}
	return nil
}

// checkReclog decodes a downloaded record log and checks it holds one
// record per run, in run order.
func checkReclog(raw []byte, runs int) error {
	recs, err := reclog.ReadAll(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if len(recs) != runs {
		return fmt.Errorf("%d records for %d runs", len(recs), runs)
	}
	for i, r := range recs {
		if r.Run != int64(i) {
			return fmt.Errorf("record %d names run %d", i, r.Run)
		}
	}
	return nil
}

// parseProm reads a Prometheus text page into name → value.
func parseProm(page []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] += v
		}
	}
	return out
}

// references computes, once per distinct spec and outside any timing,
// the statistics the in-process artifact pipeline gives for each job's
// spec, and checks every job against them.
func references(ops []opResult, jobs *jobStream, refs map[int64]campaign.Stats) []error {
	var errs []error
	for i, op := range ops {
		if op.err != nil {
			continue
		}
		spec := jobs.get(i).spec
		want, ok := refs[spec.Seed]
		if !ok {
			var err error
			want, err = referenceStats(spec)
			if err != nil {
				errs = append(errs, fmt.Errorf("job %d (%s): reference: %w", i, op.label, err))
				continue
			}
			refs[spec.Seed] = want
		}
		if d := diffOutcomes(op.stats, want); d != "" {
			errs = append(errs, fmt.Errorf("job %d (%s): daemon outcome differs from the in-process pipeline's (daemon≠pipeline): %s", i, op.label, d))
		}
	}
	return errs
}

// referenceStats runs spec unsharded through a private in-process
// pipeline, mapping it the way the service does.
func referenceStats(spec api.JobSpec) (campaign.Stats, error) {
	if err := spec.Normalize(); err != nil {
		return campaign.Stats{}, err
	}
	bm, ok := bench.ByName(spec.Benchmark)
	if !ok {
		return campaign.Stats{}, fmt.Errorf("unknown benchmark %q", spec.Benchmark)
	}
	pl := pipeline.New(pipeline.Config{Runs: spec.Runs, ProfileSamples: spec.Samples, Seed: spec.Seed, MaxSteps: spec.MaxSteps})
	layer := pipeline.LayerAsm
	if spec.Layer == "ir" {
		layer = pipeline.LayerIR
	}
	variant := pipeline.RawVariant()
	if spec.Protect {
		variant = pipeline.ProtectionVariant(spec.Level, spec.Flowery)
	}
	return pl.Campaign(pipeline.BenchSource(bm), variant, pipeline.CampaignOpts{Layer: layer})
}

// runDaemon runs the daemon-mixed workload.
func runDaemon(cfg config, w io.Writer) (*result, error) {
	n := 0
	newDir := func() string {
		n++
		return filepath.Join(cfg.out, fmt.Sprintf("store-seed%d-%d-%d", cfg.seed, os.Getpid(), n))
	}
	d, setupS, _, err := timeSetup(func() (*daemon, error) { return startDaemon(newDir(), nil) }, (*daemon).stop)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	stream := &jobStream{seed: cfg.seed, runs: cfg.jobRuns}
	ops, _, wall := d.drive(stream, jobCount(cfg.seconds), nil)
	parked := d.hub.Workers()
	d.stop()
	fmt.Fprintf(w, "closed loop of %d callers, %d runs per job\n", callers, cfg.jobRuns)

	res := &result{}
	res.note("socket workers parked on the hub after the loop: %d of %d", parked, socketWorkers)
	res.countOps(ops)
	refs := map[int64]campaign.Stats{}
	res.fail(references(ops, stream, refs)...)
	var jobLat []time.Duration
	for _, op := range ops {
		if op.err == nil {
			jobLat = append(jobLat, op.latency)
		}
	}
	endToEnd(res, ops, jobLat, wall, setupS)
	res.note("untraced: %d jobs in %.3f s; mix %s", len(ops), wall.Seconds(), jobMix(ops))
	if !cfg.trace {
		return res, nil
	}

	rec := newRecorder()
	td, err := startDaemon(newDir(), rec)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	tops, trs, twall := td.drive(stream, len(ops), rec)
	res.note("socket workers parked on the hub after the traced loop: %d of %d", td.hub.Workers(), socketWorkers)
	td.stop()
	res.countOps(tops)
	res.fail(references(tops, stream, refs)...)
	res.attempted += len(ops) // the pairwise outcome comparisons
	res.fail(compareOutcomes(ops, tops)...)
	res.fail(checkRepeats(tops, trs)...)
	if err := res.reportTraced(cfg, daemonLayers(rec.all(), tops, trs), len(tops), wall, twall, rec); err != nil {
		return nil, err
	}
	return res, nil
}

// jobMix renders the share of each job kind.
func jobMix(ops []opResult) string {
	counts := map[string]int{}
	for _, op := range ops {
		counts[op.kind]++
	}
	var parts []string
	for _, k := range []string{kindFresh, kindRepeat, kindPipe, kindRecords} {
		parts = append(parts, fmt.Sprintf("%s %.3f", k, ratio(float64(counts[k]), float64(len(ops)))))
	}
	return strings.Join(parts, ", ")
}

// checkRepeats checks, from the traced jobs' metrics pages, that every
// repeat was served from the store without an injection and that every
// other job executed its campaign.
func checkRepeats(ops []opResult, trs []jobTrace) []error {
	var errs []error
	for i, op := range ops {
		if op.err != nil {
			continue
		}
		m := trs[i].metrics
		hits, runs := m["pipeline_store_hits_total"], m["campaign_runs_total"]
		if op.kind == kindRepeat && (hits < 1 || runs != 0) {
			errs = append(errs, fmt.Errorf("job %d (%s): repeat was not served from the store (store hits %g, runs executed %g)", i, op.label, hits, runs))
		}
		if op.kind != kindRepeat && runs != float64(op.stats.Runs) {
			errs = append(errs, fmt.Errorf("job %d (%s): executed %g runs, want %d", i, op.label, runs, op.stats.Runs))
		}
	}
	return errs
}

// daemonLayers derives the pipeline, store, service, api, shard and
// reclog metrics of a traced daemon pass.
func daemonLayers(spans []span, ops []opResult, trs []jobTrace) map[string]float64 {
	v := map[string]float64{}
	var gets, puts []float64
	for _, s := range spans {
		ms := float64(s.End-s.Start) / float64(time.Millisecond)
		switch s.Name {
		case "store.Get":
			gets = append(gets, ms)
		case "store.Put":
			puts = append(puts, ms)
			v["store.put_bytes"] += float64(s.Bytes)
		}
	}
	v["store.get_ms_p50"] = percentile(gets, 50)
	_, v["store.get_ms_tail"], _ = tailPercentile(gets)
	v["store.put_ms_p50"] = percentile(puts, 50)
	_, v["store.put_ms_tail"], _ = tailPercentile(puts)

	var queue, submit, streamLag []float64
	exec := map[string][]float64{}
	var hits, misses, recBytes, recRuns float64
	for i, op := range ops {
		tr := trs[i]
		if op.err != nil || tr.info.StartedAt == nil || tr.info.FinishedAt == nil {
			continue
		}
		queue = append(queue, msBetween(tr.info.SubmittedAt, *tr.info.StartedAt))
		exec[op.kind] = append(exec[op.kind], msBetween(*tr.info.StartedAt, *tr.info.FinishedAt))
		submit = append(submit, float64(tr.submit)/float64(time.Millisecond))
		streamLag = append(streamLag, msBetween(*tr.info.FinishedAt, tr.lastLine))
		m := tr.metrics
		for _, stage := range []string{"build", "dup", "lower", "campaign"} {
			v["pipeline.stage_s."+stage] += m[`pipeline_stage_seconds_sum{stage="`+stage+`"}`]
		}
		hits += m["pipeline_store_hits_total"]
		misses += m["pipeline_store_misses_total"]
		v["shard.steals"] += m["shard_steals_total"]
		v["shard.workers_spawned"] += m["shard_workers_spawned_total"]
		if op.kind == kindRecords {
			recBytes += float64(tr.reclogSize)
			recRuns += float64(op.stats.Runs)
		}
	}
	v["pipeline.store_hit_frac"] = ratio(hits, hits+misses)
	v["service.queue_ms_p50"] = percentile(queue, 50)
	_, v["service.queue_ms_tail"], _ = tailPercentile(queue)
	for _, k := range []string{kindFresh, kindRepeat, kindPipe} {
		v["service.exec_ms_p50."+k] = percentile(exec[k], 50)
	}
	v["shard.overhead_ms_per_shard.pipe"] = (v["service.exec_ms_p50.pipe"] - v["service.exec_ms_p50.fresh"]) / jobShards
	v["api.submit_ms_p50"] = percentile(submit, 50)
	v["api.stream_ms_p50"] = percentile(streamLag, 50)
	v["reclog.bytes_per_run"] = ratio(recBytes, recRuns)
	return v
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }
