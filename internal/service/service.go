// Package service is the execution layer of the floweryd daemon: a job
// manager that accepts api.JobSpec submissions into a bounded queue,
// executes them on a fixed worker pool through the same artifact
// pipeline the batch CLIs use, and exposes their lifecycle (queued →
// running → done/failed, or cancelled while queued) plus incremental
// results for streaming. The HTTP surface lives in server.go; the wire
// vocabulary in internal/api; persistence in internal/store.
//
// Determinism contract: a job's campaign statistics are the same the
// batch `flowery inject` would print for the same spec, because both
// paths run the identical pipeline derivation chain — and a repeated
// spec is served from the shared artifact store without executing a
// single injection (Config.Artifacts).
package service

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"
	"time"

	"flowery/internal/api"
	"flowery/internal/asm"
	"flowery/internal/bench"
	"flowery/internal/campaign"
	"flowery/internal/experiment"
	"flowery/internal/ir"
	"flowery/internal/pipeline"
	"flowery/internal/reclog"
	"flowery/internal/shard"
	"flowery/internal/store"
	"flowery/internal/telemetry"
)

// Config tunes the manager.
type Config struct {
	// Artifacts is the shared persistent store behind every job's
	// pipeline (nil = no persistence; each job still memoizes within
	// itself).
	Artifacts store.Store
	// Workers is the number of jobs executing concurrently (0 = 1).
	// Each job additionally parallelizes internally per its spec.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (0 = 64). Submissions beyond it are rejected, not blocked.
	QueueDepth int
	// Telemetry is the daemon-level registry: job lifecycle counters
	// report here, and the /metrics endpoint renders it. Per-job
	// pipeline telemetry goes to each job's own child registry instead
	// (served at /jobs/{id}/metrics). Nil keeps a private registry.
	Telemetry *telemetry.Registry
	// Hub is the daemon's worker-registration listener (floweryd
	// -shard-listen): jobs submitted with RemoteWorkers fan their shards
	// out to the socket workers parked here. Nil rejects such jobs at
	// submission.
	Hub *shard.Hub
}

// Manager owns the job table, the queue, and the worker pool.
type Manager struct {
	cfg   Config
	reg   *telemetry.Registry
	queue chan *job

	submitted *telemetry.Counter
	started   *telemetry.Counter
	finished  *telemetry.Counter
	failed    *telemetry.Counter
	cancelled *telemetry.Counter

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order
	nextID int
	closed bool

	wg sync.WaitGroup
}

// job is the internal mutable state of one submission. Fields past mu
// are guarded by it; cond broadcasts every append/state change so any
// number of streaming readers can follow along.
type job struct {
	id   string
	spec api.JobSpec

	mu   sync.Mutex
	cond *sync.Cond

	state       string
	err         string
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time

	records []api.Record
	stats   *campaign.Stats
	study   []byte // experiment JSON document (study jobs)
	rec     []byte // finalized binary record log
	reg     *telemetry.Registry
}

// New starts a manager and its worker pool.
func New(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	m := &Manager{
		cfg:       cfg,
		reg:       reg,
		queue:     make(chan *job, cfg.QueueDepth),
		jobs:      make(map[string]*job),
		submitted: reg.Counter("service_jobs_submitted_total"),
		started:   reg.Counter("service_jobs_started_total"),
		finished:  reg.Counter("service_jobs_done_total"),
		failed:    reg.Counter("service_jobs_failed_total"),
		cancelled: reg.Counter("service_jobs_cancelled_total"),
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// Close stops accepting submissions and waits for running jobs to
// finish. Jobs still queued are marked cancelled.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.queue)
	m.wg.Wait()
}

// Registry returns the daemon-level registry /metrics renders.
func (m *Manager) Registry() *telemetry.Registry { return m.reg }

// Submit validates and enqueues a spec.
func (m *Manager) Submit(spec api.JobSpec) (api.JobInfo, error) {
	if err := spec.Normalize(); err != nil {
		return api.JobInfo{}, err
	}
	if spec.RemoteWorkers && m.cfg.Hub == nil {
		return api.JobInfo{}, fmt.Errorf("daemon has no worker hub (start floweryd with -shard-listen)")
	}
	// Resolve the program now so a typo'd benchmark name fails at
	// submission, not minutes later inside a worker.
	if spec.Kind == api.KindCampaign && spec.Benchmark != "" {
		if _, ok := bench.ByName(spec.Benchmark); !ok {
			return api.JobInfo{}, fmt.Errorf("unknown benchmark %q", spec.Benchmark)
		}
	}
	if spec.Kind == api.KindCampaign && spec.IR != "" {
		mod, err := ir.Parse(spec.IR)
		if err != nil {
			return api.JobInfo{}, fmt.Errorf("inline IR: %w", err)
		}
		if err := mod.Verify(); err != nil {
			return api.JobInfo{}, fmt.Errorf("inline IR: %w", err)
		}
	}
	if spec.Kind == api.KindStudy {
		for _, name := range spec.Benchmarks {
			if _, ok := bench.ByName(name); !ok {
				return api.JobInfo{}, fmt.Errorf("unknown benchmark %q", name)
			}
		}
	}

	j := &job{
		spec:        spec,
		state:       api.StateQueued,
		submittedAt: time.Now(),
		reg:         telemetry.New(),
	}
	j.cond = sync.NewCond(&j.mu)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return api.JobInfo{}, fmt.Errorf("service shutting down")
	}
	m.nextID++
	j.id = fmt.Sprintf("j%04d", m.nextID)
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		return api.JobInfo{}, fmt.Errorf("queue full (%d jobs pending)", m.cfg.QueueDepth)
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.mu.Unlock()

	m.submitted.Inc()
	return j.info(), nil
}

// lookup returns the job or nil.
func (m *Manager) lookup(id string) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// Job returns one job's public view.
func (m *Manager) Job(id string) (api.JobInfo, bool) {
	j := m.lookup(id)
	if j == nil {
		return api.JobInfo{}, false
	}
	return j.info(), true
}

// Jobs lists every job, newest first.
func (m *Manager) Jobs() []api.JobInfo {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]api.JobInfo, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		if j := m.lookup(ids[i]); j != nil {
			out = append(out, j.info())
		}
	}
	return out
}

// States counts jobs per state (the /healthz document).
func (m *Manager) States() map[string]int {
	counts := make(map[string]int)
	for _, ji := range m.Jobs() {
		counts[ji.State]++
	}
	// Every state appears, so the health document's shape is stable.
	for _, s := range []string{api.StateQueued, api.StateRunning, api.StateDone, api.StateFailed, api.StateCancelled} {
		counts[s] += 0
	}
	return counts
}

// Cancel cancels a queued job. Running jobs are not interrupted (the
// campaign engine has no safe preemption point): cancelling one returns
// ErrNotCancellable.
var ErrNotCancellable = fmt.Errorf("job is not queued (running jobs cannot be cancelled)")

func (m *Manager) Cancel(id string) (api.JobInfo, error) {
	j := m.lookup(id)
	if j == nil {
		return api.JobInfo{}, fmt.Errorf("no such job %q", id)
	}
	j.mu.Lock()
	if j.state != api.StateQueued {
		j.mu.Unlock()
		return j.info(), ErrNotCancellable
	}
	j.state = api.StateCancelled
	j.finishedAt = time.Now()
	j.cond.Broadcast()
	j.mu.Unlock()
	m.cancelled.Inc()
	return j.info(), nil
}

// info snapshots the public view.
func (j *job) info() api.JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	ji := api.JobInfo{
		ID:          j.id,
		Kind:        j.spec.Kind,
		State:       j.state,
		Spec:        j.spec,
		Error:       j.err,
		SubmittedAt: j.submittedAt,
		Records:     len(j.records),
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		ji.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		ji.FinishedAt = &t
	}
	if j.stats != nil {
		st := *j.stats
		ji.Stats = &st
	}
	return ji
}

// worker drains the queue until Close.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		j.mu.Lock()
		if j.state != api.StateQueued { // cancelled while queued
			j.mu.Unlock()
			continue
		}
		j.state = api.StateRunning
		j.startedAt = time.Now()
		j.cond.Broadcast()
		j.mu.Unlock()
		m.started.Inc()

		err := m.run(j)

		j.mu.Lock()
		j.finishedAt = time.Now()
		if err != nil {
			j.state = api.StateFailed
			j.err = err.Error()
		} else {
			j.state = api.StateDone
		}
		j.cond.Broadcast()
		j.mu.Unlock()
		if err != nil {
			m.failed.Inc()
		} else {
			m.finished.Inc()
		}
	}
}

// run executes one job. Any panic in the derivation chain becomes a
// failed job, not a dead worker.
func (m *Manager) run(j *job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	if j.spec.Kind == api.KindStudy {
		return m.runStudy(j)
	}
	return m.runCampaign(j)
}

// source resolves the job's program to a pipeline source. Inline IR is
// keyed by content hash — the same convention `flowery inject` uses for
// file programs — so identical texts share artifacts across jobs and
// across the persistent store.
func source(spec api.JobSpec) (pipeline.Source, error) {
	if spec.Benchmark != "" {
		bm, ok := bench.ByName(spec.Benchmark)
		if !ok {
			return pipeline.Source{}, fmt.Errorf("unknown benchmark %q", spec.Benchmark)
		}
		return pipeline.BenchSource(bm), nil
	}
	text := spec.IR
	if _, err := ir.Parse(text); err != nil {
		return pipeline.Source{}, fmt.Errorf("inline IR: %w", err)
	}
	sum := sha256.Sum256([]byte(text))
	return pipeline.Source{
		Key: fmt.Sprintf("ir:#%x", sum[:8]),
		Build: func() *ir.Module {
			mod, err := ir.Parse(text)
			if err != nil {
				panic(fmt.Sprintf("service: reparse inline IR: %v", err))
			}
			return mod
		},
	}, nil
}

// pipelineConfig maps a normalized spec to the pipeline configuration —
// the same mapping cmd/flowery's inject performs, plus the shared
// artifact store and the job's child registry.
func (m *Manager) pipelineConfig(j *job) pipeline.Config {
	spec := j.spec
	return pipeline.Config{
		Runs:            spec.Runs,
		ProfileSamples:  spec.Samples,
		Seed:            spec.Seed,
		MaxSteps:        spec.MaxSteps,
		CampaignWorkers: spec.Workers,
		Shards:          spec.Shards,
		ShardPool:       m.shardPool(spec),
		Artifacts:       m.cfg.Artifacts,
		Telemetry:       j.reg,
	}
}

// shardPool maps the spec's transport fields onto the shard pool:
// ShardWorkers spawns children re-executing this binary (floweryd calls
// shard.MaybeServeWorker at startup exactly like flowery does), and
// RemoteWorkers claims socket workers parked on the daemon's hub.
func (m *Manager) shardPool(spec api.JobSpec) shard.PoolOpts {
	var po shard.PoolOpts
	if spec.ShardWorkers > 1 {
		po.Procs = spec.ShardWorkers
	}
	if spec.RemoteWorkers {
		po.Hub = m.cfg.Hub
	}
	return po
}

func variant(spec api.JobSpec) pipeline.Variant {
	if !spec.Protect {
		return pipeline.RawVariant()
	}
	return pipeline.ProtectionVariant(spec.Level, spec.Flowery)
}

func layer(spec api.JobSpec) pipeline.Layer {
	if spec.Layer == "ir" {
		return pipeline.LayerIR
	}
	return pipeline.LayerAsm
}

// runCampaign executes (or recalls) one campaign and publishes its
// records incrementally and its stats terminally.
func (m *Manager) runCampaign(j *job) error {
	src, err := source(j.spec)
	if err != nil {
		return err
	}
	pl := pipeline.New(m.pipelineConfig(j))
	opts := pipeline.CampaignOpts{Layer: layer(j.spec)}
	if j.spec.Prune {
		opts.Pruning = campaign.PruneClasses
		opts.PilotsPerClass = j.spec.Pilots
		opts.MaskStatic = j.spec.MaskStatic
	}

	var buf bytes.Buffer
	var logW *reclog.Writer
	var recErr error
	var shards *shardBlobs
	if j.spec.Records {
		if j.spec.RemoteWorkers {
			// Remote jobs spill each shard's reclog bytes into the
			// persistent store as they arrive (per-shard blobs) instead of
			// funneling every record through one in-memory writer; the
			// final log is composed from the blobs after the merge
			// (composeReclog), byte-identical to the single-writer path.
			shards = &shardBlobs{m: m, job: j.id}
			opts.ShardStream = shards.put
		} else {
			logW = reclog.NewWriter(&buf)
		}
		opts.Records = func(r campaign.Record) {
			if logW != nil && recErr == nil {
				recErr = logW.Write(reclog.Record{
					Run:     int64(r.Run),
					Outcome: uint8(r.Outcome),
					Origin:  uint8(r.Origin),
					Target:  r.Target,
					Bit:     r.Bit,
				})
			}
			j.appendRecord(api.Record{
				Run:     int64(r.Run),
				Outcome: r.Outcome.String(),
				Origin:  originName(r.Origin),
				Target:  r.Target,
				Bit:     r.Bit,
			})
		}
	}

	var st campaign.Stats
	if j.spec.Sections {
		// Sectioned campaigns compose per-section summaries; unchanged
		// sections are recalled from the shared artifact store, so a
		// re-submitted spec after a one-function edit re-injects only the
		// sections that changed.
		res, serr := pl.CampaignSectioned(src, variant(j.spec), opts)
		if serr != nil {
			return serr
		}
		st = res.Stats
	} else {
		st, err = pl.Campaign(src, variant(j.spec), opts)
		if err != nil {
			return err
		}
	}
	if logW != nil {
		if recErr != nil {
			return fmt.Errorf("record log: %w", recErr)
		}
		if err := logW.Close(); err != nil {
			return fmt.Errorf("record log: %w", err)
		}
	}
	var rec []byte
	if logW != nil {
		rec = buf.Bytes()
	}
	if shards != nil {
		rec, err = shards.compose()
		if err != nil {
			return fmt.Errorf("record log: %w", err)
		}
	}

	j.mu.Lock()
	j.stats = &st
	j.rec = rec
	j.cond.Broadcast()
	j.mu.Unlock()
	return nil
}

// shardBlobs tracks the per-shard reclog blobs a remote campaign spills
// into the persistent store as each shard completes (falling back to
// memory when the daemon runs storeless). compose reassembles the
// single record log after the merge: decoding each shard's stream in
// range order and re-encoding through one writer reproduces the batch
// path's bytes exactly, because reclog block boundaries are a function
// of record count alone.
type shardBlobs struct {
	m   *Manager
	job string

	mu    sync.Mutex
	blobs []shardBlob
}

type shardBlob struct {
	lo, hi int
	key    string
	data   []byte // storeless fallback
}

func (s *shardBlobs) put(rg campaign.ShardRange, stream []byte) {
	b := shardBlob{lo: rg.Lo, hi: rg.Hi}
	if s.m.cfg.Artifacts != nil {
		b.key = fmt.Sprintf("remoterec|%s|%d-%d", s.job, rg.Lo, rg.Hi)
		if err := s.m.cfg.Artifacts.Put(b.key, stream); err != nil {
			b.key, b.data = "", append([]byte(nil), stream...)
		}
	} else {
		b.data = append([]byte(nil), stream...)
	}
	s.mu.Lock()
	s.blobs = append(s.blobs, b)
	s.mu.Unlock()
}

func (s *shardBlobs) compose() ([]byte, error) {
	s.mu.Lock()
	blobs := append([]shardBlob(nil), s.blobs...)
	s.mu.Unlock()
	sort.Slice(blobs, func(i, k int) bool { return blobs[i].lo < blobs[k].lo })
	var out bytes.Buffer
	w := reclog.NewWriter(&out)
	next := 0
	for _, b := range blobs {
		if b.lo != next {
			return nil, fmt.Errorf("shard blob gap: have [%d,%d), want lo %d", b.lo, b.hi, next)
		}
		next = b.hi
		data := b.data
		if b.key != "" {
			stored, ok, err := s.m.cfg.Artifacts.Get(b.key)
			if err != nil || !ok {
				return nil, fmt.Errorf("shard blob %s not recallable: %v", b.key, err)
			}
			data = stored
		}
		recs, err := reclog.ReadAll(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("shard blob [%d,%d): %w", b.lo, b.hi, err)
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				return nil, err
			}
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// originName renders an origin like the campaign JSON codec: empty for
// OriginNone (omitted from the record line), the asm name otherwise.
func originName(o asm.Origin) string {
	if o == asm.OriginNone {
		return ""
	}
	return o.String()
}

// runStudy executes a full experiment study and stores its JSON
// document.
func (m *Manager) runStudy(j *job) error {
	spec := j.spec
	cfg := experiment.Config{
		Runs:           spec.Runs,
		ProfileSamples: spec.Samples,
		Seed:           spec.Seed,
		Workers:        spec.Workers,
		Shards:         spec.Shards,
		ShardPool:      m.shardPool(spec),
		Telemetry:      j.reg,
		Artifacts:      m.cfg.Artifacts,
	}
	study := experiment.NewStudy(cfg)
	results, err := study.Results(spec.Benchmarks, nil)
	if err != nil {
		return err
	}
	study.Finish()
	doc, err := experiment.ToJSON(results, study.Config())
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.study = doc
	j.cond.Broadcast()
	j.mu.Unlock()
	return nil
}

// appendRecord publishes one record to streaming readers.
func (j *job) appendRecord(r api.Record) {
	j.mu.Lock()
	j.records = append(j.records, r)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// stream delivers the job's results: records in run order as they
// arrive (when the job captures records), then exactly one terminal
// line. emit is called without j.mu held; a false return stops the
// stream (client went away).
func (j *job) stream(emit func(api.ResultLine) bool) {
	next := 0
	for {
		j.mu.Lock()
		for next >= len(j.records) && !terminal(j.state) {
			j.cond.Wait()
		}
		batch := append([]api.Record(nil), j.records[next:]...)
		next += len(batch)
		state, errMsg := j.state, j.err
		stats, study := j.stats, j.study
		j.mu.Unlock()

		for i := range batch {
			if !emit(api.ResultLine{Record: &batch[i]}) {
				return
			}
		}
		if !terminal(state) {
			continue
		}
		// Drain any records appended between snapshot and now.
		j.mu.Lock()
		tail := append([]api.Record(nil), j.records[next:]...)
		j.mu.Unlock()
		for i := range tail {
			if !emit(api.ResultLine{Record: &tail[i]}) {
				return
			}
		}
		switch {
		case state == api.StateFailed:
			emit(api.ResultLine{Error: errMsg})
		case state == api.StateCancelled:
			emit(api.ResultLine{Error: "job cancelled"})
		case study != nil:
			emit(api.ResultLine{Study: study})
		case stats != nil:
			st := *stats
			emit(api.ResultLine{Stats: &st})
		default:
			emit(api.ResultLine{Error: "job finished without results"})
		}
		return
	}
}

func terminal(state string) bool {
	switch state {
	case api.StateDone, api.StateFailed, api.StateCancelled:
		return true
	}
	return false
}

// reclogBytes blocks until the job finishes, then returns the binary
// record log (nil when the job captured none).
func (j *job) reclogBytes() ([]byte, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for !terminal(j.state) {
		j.cond.Wait()
	}
	return j.rec, j.state
}
