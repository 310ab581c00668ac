package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"flowery/internal/campaign"
	"flowery/internal/telemetry"
)

// PoolOpts configures a Pool: where its workers come from and how the
// transport treats them. The zero value has no worker source; callers
// that hold one (pipeline.Config.ShardPool) read it as "execute shards
// in-process" (see HasWorkers).
type PoolOpts struct {
	// Procs spawns this many local worker processes (values above the
	// shard count are trimmed at Execute time). Each child re-executes
	// this binary as `<self> shard-worker`, whose main() must call
	// MaybeServeWorker first, and talks to the coordinator over its end
	// of a socketpair. Children register as proc-<slot>, are never
	// respawned, and are reaped when the campaign ends or they die.
	Procs int
	// Dial is the list of worker addresses (host:port) the coordinator
	// connects to — workers started with `flowery shard-worker -listen`.
	// Dialed addresses are redialed with backoff when the connection
	// dies, up to Redials attempts per outage.
	Dial []string
	// Listen, when non-empty, is a host:port (or host:0) the coordinator
	// listens on for workers dialing in with `-connect`. Accepted
	// workers are not redialed — the worker owns its reconnect loop.
	Listen string
	// Hub, when non-nil, supplies workers that pre-registered with a
	// daemon's worker listener (floweryd -shard-listen). The pool claims
	// parked workers as they become available and returns them to their
	// own reconnect loop (they re-register) when the job completes.
	Hub *Hub

	// Heartbeat is the liveness interval (0 = DefaultHeartbeat): the
	// coordinator reads in deadline slices of it, and declares a
	// connection dead after HeartbeatMiss consecutive slices without a
	// single byte of progress. Spawned children ping at this interval.
	Heartbeat time.Duration
	// HeartbeatMiss is the consecutive-silent-slice threshold
	// (0 = DefaultHeartbeatMiss).
	HeartbeatMiss int
	// Redials bounds reconnects per dialed address per outage
	// (0 = DefaultRedials; negative = no redials).
	Redials int
	// BackoffBase/BackoffMax shape the reconnect schedule
	// (0 = DefaultBackoffBase/DefaultBackoffMax).
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Stream, when non-nil, receives each accepted shard's raw reclog
	// bytes (exactly the stream the worker encoded) before the decoded
	// result is emitted. floweryd uses it to spill per-shard record
	// blobs into the persistent store incrementally instead of buffering
	// every record in memory; blobs are composed on merge
	// (service.composeReclog) into a byte stream identical to the
	// single-writer batch path.
	Stream func(rg campaign.ShardRange, reclog []byte)

	// Metrics, when non-nil, receives the pool counters
	// (shard_workers_spawned_total, shard_shards_executed_total,
	// shard_steals_total, shard_duplicate_results_total,
	// shard_result_bytes_total, shard_shards_redealt_total), the socket
	// counters (shard_remote_connects_total,
	// shard_remote_disconnects_total, shard_remote_redials_total,
	// shard_remote_heartbeats_missed_total) and the per-worker shard
	// gauges. Workers themselves emit nothing — the campaign counters
	// are flushed once by campaign.RunSharded.
	Metrics *telemetry.Registry

	// command, when non-empty, replaces the spawned children's argv
	// (tests). It receives the same fd 3 and environment.
	command []string
	// sleep, when non-nil, replaces the real backoff sleep (tests run a
	// fake clock through it). It returns false to abort the wait.
	sleep func(time.Duration) bool
	// dialTimeout overrides the connect timeout (tests).
	dialTimeout time.Duration
}

// HasWorkers reports whether the options name any worker source.
func (o PoolOpts) HasWorkers() bool {
	return o.Procs > 0 || len(o.Dial) > 0 || o.Listen != "" || o.Hub != nil
}

func (o PoolOpts) withDefaults() PoolOpts {
	if o.Heartbeat <= 0 {
		o.Heartbeat = DefaultHeartbeat
	}
	if o.HeartbeatMiss <= 0 {
		o.HeartbeatMiss = DefaultHeartbeatMiss
	}
	if o.Redials == 0 {
		o.Redials = DefaultRedials
	}
	if o.Redials < 0 {
		o.Redials = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = DefaultBackoffBase
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = DefaultBackoffMax
	}
	if o.dialTimeout <= 0 {
		o.dialTimeout = o.Heartbeat * time.Duration(o.HeartbeatMiss+1)
	}
	return o
}

// WorkerStats is one worker's contribution to a campaign.
type WorkerStats struct {
	// Name identifies the worker: the name it registered in its hello
	// (proc-<slot> for spawned children).
	Name string
	// Shards counts results this worker reported that were accepted
	// (first completion of their range).
	Shards int
	// Duplicates counts results dropped because another worker finished
	// the (stolen) range first.
	Duplicates int
	// CPUNanos is the worker process's total CPU time across its
	// results, including its one-time setup (golden run, snapshots).
	CPUNanos int64
	// ResultBytes totals the msgResult payload bytes it sent.
	ResultBytes int64
	// Err records why the worker died, if it did.
	Err error
}

// PoolStats describes the last Execute call.
type PoolStats struct {
	Workers []WorkerStats
	// Steals counts straggler re-assignments issued.
	Steals int
}

// TotalResultBytes sums the result payload traffic of all workers.
func (s PoolStats) TotalResultBytes() int64 {
	var n int64
	for _, w := range s.Workers {
		n += w.ResultBytes
	}
	return n
}

// Pool is a campaign.ShardExecutor that farms shards to worker
// processes: spawned children, dialed or accepted socket workers, and
// hub-parked workers, all served by one protocol loop. Construct one
// per campaign with NewPool; Execute is not reentrant.
type Pool struct {
	job  Job
	opts PoolOpts

	mu    sync.Mutex
	stats PoolStats
}

// NewPool builds a pool for one campaign job. The job's campaign knobs
// (Runs, Seed, ...) are overwritten from the Spec at Execute time; the
// module, layer, and backend config identify what the workers run.
func NewPool(job Job, opts PoolOpts) *Pool {
	return &Pool{job: job, opts: opts.withDefaults()}
}

// Stats returns the statistics of the last Execute call, one
// WorkerStats per registered worker name (accumulated across that
// worker's reconnects), sorted by name.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// dispatcher deals shard indices: pending ranges first, then — once the
// queue drains — it re-deals the oldest still-inflight range to idle
// workers (work stealing). Shards are deterministic and idempotent, so
// a range may safely execute in several workers at once; complete()
// accepts only the first result. Stolen ranges rotate to the back of
// the inflight list so consecutive steals target different stragglers.
type dispatcher struct {
	mu       sync.Mutex
	pending  []int
	inflight []int
	done     []bool
	steals   int
	// remaining counts incomplete shards; allDone closes when it hits
	// zero so transport-level waiters (the accept loop, backoff sleeps,
	// reads awaiting a straggler) can stop without polling.
	remaining int
	allDone   chan struct{}
}

func newDispatcher(n int) *dispatcher {
	d := &dispatcher{
		pending:   make([]int, n),
		done:      make([]bool, n),
		remaining: n,
		allDone:   make(chan struct{}),
	}
	for i := range d.pending {
		d.pending[i] = i
	}
	if n == 0 {
		close(d.allDone)
	}
	return d
}

// next returns a shard index to execute and whether this assignment is
// a steal; ok is false when every shard is complete.
func (d *dispatcher) next() (idx int, steal, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.pending) > 0 {
		idx = d.pending[0]
		d.pending = d.pending[1:]
		d.inflight = append(d.inflight, idx)
		return idx, false, true
	}
	for len(d.inflight) > 0 {
		idx = d.inflight[0]
		d.inflight = d.inflight[1:]
		if d.done[idx] {
			continue
		}
		d.inflight = append(d.inflight, idx)
		d.steals++
		return idx, true, true
	}
	return 0, false, false
}

// requeue returns an assignment whose worker died so others pick it up
// even before the steal path kicks in; it reports whether the shard was
// actually still incomplete (the pool counts those as re-deals).
func (d *dispatcher) requeue(idx int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done[idx] {
		return false
	}
	d.pending = append(d.pending, idx)
	return true
}

// complete marks a shard done; reports whether this was the first
// completion (later duplicates are dropped by the caller).
func (d *dispatcher) complete(idx int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done[idx] {
		return false
	}
	d.done[idx] = true
	d.remaining--
	if d.remaining == 0 {
		close(d.allDone)
	}
	return true
}

// poolRun is the per-Execute state shared by every connection.
type poolRun struct {
	opts    PoolOpts
	payload []byte
	hash    [32]byte
	d       *dispatcher
	ranges  []campaign.ShardRange
	emit    func(campaign.ShardResult)
	reg     *telemetry.Registry

	// stop closes at teardown (success or failure) so accept loops,
	// backoff sleeps, and hub claims unwind.
	stop     chan struct{}
	stopOnce sync.Once

	mu      sync.Mutex
	names   map[string]bool         // currently connected worker names
	workers map[string]*WorkerStats // accumulated per name
	errs    []string                // terminal per-source failures
	emitMu  sync.Mutex
}

// Execute implements campaign.ShardExecutor: start every worker source,
// deal ranges until all are complete, then let the workers go. A worker
// failure is tolerated as long as some source can still supply a
// worker to pick up its shards; emit is called exactly once per
// completed range (the campaign side also dedupes defensively).
func (p *Pool) Execute(spec campaign.Spec, ranges []campaign.ShardRange, emit func(campaign.ShardResult)) error {
	opts := p.opts
	if !opts.HasWorkers() {
		return fmt.Errorf("shard: pool has no worker source (processes, dial list, listen address, or hub)")
	}
	job := p.job
	job.Runs = spec.Runs
	job.Seed = spec.Seed
	job.MaxSteps = spec.MaxSteps
	job.Workers = spec.Workers
	job.Snapshots = spec.Snapshots
	job.Reference = spec.Reference
	payload, err := json.Marshal(job)
	if err != nil {
		return fmt.Errorf("shard: encoding job: %w", err)
	}

	r := &poolRun{
		opts:    opts,
		payload: payload,
		hash:    jobHash(payload),
		d:       newDispatcher(len(ranges)),
		ranges:  ranges,
		emit:    emit,
		reg:     opts.Metrics,
		stop:    make(chan struct{}),
		names:   make(map[string]bool),
		workers: make(map[string]*WorkerStats),
	}

	// Bind the listener before any source starts, so a bad address
	// fails the campaign with nothing to unwind.
	var ln net.Listener
	if opts.Listen != "" {
		if ln, err = net.Listen("tcp", opts.Listen); err != nil {
			return fmt.Errorf("shard: pool listen: %w", err)
		}
	}

	var connWG sync.WaitGroup // per-connection serve goroutines
	var srcWG sync.WaitGroup  // worker-source goroutines

	// Mortal sources can run out (children die, dial budgets run dry);
	// a listener or hub is immortal — workers may always arrive later.
	mortalDone := make(chan struct{})
	immortal := opts.Listen != "" || opts.Hub != nil
	var mortals sync.WaitGroup
	mortal := func(fn func()) {
		srcWG.Add(1)
		mortals.Add(1)
		go func() {
			defer srcWG.Done()
			defer mortals.Done()
			fn()
		}()
	}
	procs := min(opts.Procs, len(ranges))
	r.reg.Counter("shard_workers_spawned_total").Add(int64(max(procs, 0)))
	for slot := 0; slot < procs; slot++ {
		mortal(func() { r.spawnWorker(slot) })
	}
	for _, addr := range opts.Dial {
		mortal(func() { r.dialWorker(addr) })
	}
	go func() {
		mortals.Wait()
		close(mortalDone)
	}()

	if ln != nil {
		srcWG.Add(1)
		go func() {
			defer srcWG.Done()
			r.acceptWorkers(ln, &connWG)
		}()
	}
	if opts.Hub != nil {
		srcWG.Add(1)
		go func() {
			defer srcWG.Done()
			r.claimWorkers(opts.Hub, &connWG)
		}()
	}

	// Wait for completion, or for every mortal source to give up while
	// no immortal source can ever supply another worker.
	if immortal {
		<-r.d.allDone
	} else {
		select {
		case <-r.d.allDone:
		case <-mortalDone:
		}
	}
	r.shutdown()
	if ln != nil {
		ln.Close()
	}
	srcWG.Wait()
	connWG.Wait()

	stats := r.flushStats()
	p.mu.Lock()
	p.stats = stats
	p.mu.Unlock()

	r.d.mu.Lock()
	incomplete := r.d.remaining > 0
	r.d.mu.Unlock()
	if incomplete {
		return fmt.Errorf("shard: ranges left unexecuted after worker failures: %s",
			strings.Join(r.errs, "; "))
	}
	return nil
}

func (r *poolRun) shutdown() { r.stopOnce.Do(func() { close(r.stop) }) }

func (r *poolRun) done() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// complete reports whether every range has a result.
func (r *poolRun) complete() bool {
	select {
	case <-r.d.allDone:
		return true
	default:
		return false
	}
}

func (r *poolRun) recordErr(who string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errs = append(r.errs, fmt.Sprintf("%s: %v", who, err))
	if ws := r.workers[who]; ws != nil {
		ws.Err = err
	}
}

// addName registers a connected worker name; duplicates are refused so
// two hosts launched with the same identity surface at connect time.
func (r *poolRun) addName(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		return false
	}
	r.names[name] = true
	if r.workers[name] == nil {
		r.workers[name] = &WorkerStats{Name: name}
	}
	return true
}

func (r *poolRun) dropName(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.names, name)
}

func (r *poolRun) flushStats() PoolStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.workers))
	for name := range r.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	stats := PoolStats{Workers: make([]WorkerStats, 0, len(names))}
	for _, name := range names {
		stats.Workers = append(stats.Workers, *r.workers[name])
		r.reg.Gauge(workerGauge(name)).Set(float64(r.workers[name].Shards))
	}
	r.d.mu.Lock()
	stats.Steals = r.d.steals
	r.d.mu.Unlock()
	r.reg.Counter("shard_steals_total").Add(int64(stats.Steals))
	return stats
}

// workerGauge renders a per-worker metric name with a Prometheus label,
// which the registry's flat name→value rendering passes through as
// valid exposition text.
func workerGauge(name string) string {
	return fmt.Sprintf("shard_remote_worker_shards{worker=%q}", name)
}

// redeal requeues an assignment lost with its connection and counts it.
func (r *poolRun) redeal(idx int) {
	if r.d.requeue(idx) {
		r.reg.Counter("shard_shards_redealt_total").Inc()
	}
}

// spawnWorker owns one local child: start it, serve it like any other
// worker, and reap it. A child is a mortal source — it is not respawned
// when it dies — and its stderr, if it wrote any, is attached to its
// error.
func (r *poolRun) spawnWorker(slot int) {
	name := fmt.Sprintf("proc-%d", slot)
	cmd, conn, stderr, err := r.startChild(name)
	if err != nil {
		r.recordErr(name, err)
		return
	}
	_, serr := r.serveConn(conn, name, "")
	// Reap on every exit path. Kill is a no-op error on a child that
	// already quit and ends one still running a straggler duplicate;
	// exec's copier writes the stderr buffer until Wait returns, so the
	// buffer is read only after it.
	cmd.Process.Kill()
	cmd.Wait()
	if serr != nil {
		if stderr.Len() > 0 {
			serr = fmt.Errorf("%w (worker stderr: %s)", serr, strings.TrimSpace(stderr.String()))
		}
		r.recordErr(name, serr)
	}
}

// startChild spawns `<self> shard-worker` holding one end of a
// socketpair as fd 3, which MaybeServeWorker picks up via EnvWorker,
// and returns the coordinator's end as a net.Conn.
func (r *poolRun) startChild(name string) (*exec.Cmd, net.Conn, *bytes.Buffer, error) {
	argv := r.opts.command
	if len(argv) == 0 {
		self, err := os.Executable()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("shard: resolving own binary: %w", err)
		}
		argv = []string{self, "shard-worker"}
	}
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("shard: socketpair: %w", err)
	}
	ours := os.NewFile(uintptr(fds[0]), name+"-coordinator")
	theirs := os.NewFile(uintptr(fds[1]), name)
	// FileConn dups our end, and the child holds its own copy of theirs
	// once started; both originals close here, so a dead child reads as
	// EOF on our side.
	defer ours.Close()
	defer theirs.Close()
	conn, err := net.FileConn(ours)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("shard: socketpair conn: %w", err)
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.ExtraFiles = []*os.File{theirs}
	cmd.Env = append(os.Environ(),
		EnvWorker+"="+name,
		envWorkerHeartbeat+"="+r.opts.Heartbeat.String())
	stderr := new(bytes.Buffer)
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("shard: starting worker %q: %w", argv[0], err)
	}
	return cmd, conn, stderr, nil
}

// dialWorker owns one dialed address: connect, serve, and on connection
// death redial with capped exponential backoff until the job completes,
// the failure is terminal, or the redial budget runs out.
func (r *poolRun) dialWorker(addr string) {
	redialsLeft := r.opts.Redials
	attempt := 0
	var lastErr error
	for {
		if r.done() {
			return
		}
		conn, err := net.DialTimeout("tcp", addr, r.opts.dialTimeout)
		if err == nil {
			r.reg.Counter("shard_remote_connects_total").Inc()
			name, serr := r.serveConn(conn, addr, "")
			if serr == nil {
				return // campaign complete (or refused post-completion)
			}
			r.reg.Counter("shard_remote_disconnects_total").Inc()
			who := addr
			if name != "" {
				who = name
			}
			if isTerminal(serr) {
				r.recordErr(who, serr)
				return
			}
			lastErr = serr
			// A completed handshake proves the address hosts a live,
			// version-matched worker: refresh the redial budget so the
			// bound applies per outage, not per campaign.
			if name != "" {
				redialsLeft = r.opts.Redials
			}
		} else {
			lastErr = err
		}
		if redialsLeft <= 0 {
			r.recordErr(addr, lastErr)
			return
		}
		redialsLeft--
		attempt++
		r.reg.Counter("shard_remote_redials_total").Inc()
		if !r.pause(backoffDelay(attempt, r.opts.BackoffBase, r.opts.BackoffMax, addr)) {
			return
		}
	}
}

// pause sleeps d, aborting early at teardown; reports whether the full
// wait elapsed.
func (r *poolRun) pause(d time.Duration) bool {
	if r.opts.sleep != nil {
		return r.opts.sleep(d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.stop:
		return false
	}
}

// acceptWorkers serves workers dialing in (-connect) until teardown
// closes the listener. Accepted workers are not redialed: reconnecting
// is the worker's job.
func (r *poolRun) acceptWorkers(ln net.Listener, connWG *sync.WaitGroup) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed at teardown
		}
		r.reg.Counter("shard_remote_connects_total").Inc()
		connWG.Add(1)
		go func() {
			defer connWG.Done()
			r.serveSocket(conn, conn.RemoteAddr().String(), "")
		}()
	}
}

// claimWorkers pulls registered workers from the hub as they become
// available until the campaign completes. It stops claiming as soon as
// the last range is done: workers quit by this campaign re-park on the
// hub for the next one, and must not be claimed (and refused) again.
func (r *poolRun) claimWorkers(hub *Hub, connWG *sync.WaitGroup) {
	for {
		if r.done() || r.complete() {
			return
		}
		w, ok := hub.take()
		if !ok {
			select {
			case <-r.stop:
				return
			case <-r.d.allDone:
				return
			case <-hub.arrived:
				continue
			case <-time.After(r.opts.Heartbeat):
				continue // poll fallback: arrivals can race the select
			}
		}
		r.reg.Counter("shard_remote_connects_total").Inc()
		connWG.Add(1)
		go func() {
			defer connWG.Done()
			r.serveSocket(w.conn, w.name, w.name)
		}()
	}
}

// serveSocket serves one accepted or hub-claimed worker, counting and
// recording its failure.
func (r *poolRun) serveSocket(conn net.Conn, src, helloName string) {
	name, serr := r.serveConn(conn, src, helloName)
	if serr != nil {
		r.reg.Counter("shard_remote_disconnects_total").Inc()
		who := src
		if name != "" {
			who = name
		}
		r.recordErr(who, serr)
	}
}

// serveConn runs the coordinator half of the protocol on one worker
// connection, whatever its source: hello validation (unless the hub
// already performed it — helloName is then the pre-validated name), job
// + ready-hash handshake, then the deal-until-dry loop with
// deadline-sliced reads and re-deal on death. Once every range has a
// result, a read still awaiting this worker's ready or a straggler
// duplicate ends at once and the worker is sent a quit, so it counts
// the job as served. Returns the worker's registered name ("" if the
// connection died before hello) and nil on clean completion.
func (r *poolRun) serveConn(conn net.Conn, src, helloName string) (string, error) {
	parked := false
	defer func() {
		if !parked {
			conn.Close()
		}
	}()
	tc := &timedConn{
		conn:  conn,
		slice: r.opts.Heartbeat,
		limit: r.opts.HeartbeatMiss,
		onMiss: func() {
			r.reg.Counter("shard_remote_heartbeats_missed_total").Inc()
		},
	}
	br := bufio.NewReaderSize(tc, 1<<16)
	sink := newFrameSink(&deadlineWriter{
		conn: conn,
		d:    r.opts.Heartbeat * time.Duration(r.opts.HeartbeatMiss+1),
	})

	name := helloName
	if name == "" {
		typ, payload, err := readFrameSkipPing(br)
		if err != nil {
			return "", fmt.Errorf("shard: reading hello from %s: %w", src, err)
		}
		if typ != msgHello {
			return "", terminal(fmt.Errorf("shard: %s sent frame type %d before hello", src, typ))
		}
		h, err := decodeHello(payload)
		if err != nil {
			sink.send(msgError, []byte(err.Error()))
			return "", terminal(err)
		}
		if h.Proto != ProtoVersion {
			msg := fmt.Sprintf("worker speaks protocol %d, coordinator %d — version skew", h.Proto, ProtoVersion)
			sink.send(msgError, []byte(msg))
			return "", terminal(fmt.Errorf("shard: %s: %s", src, msg))
		}
		name = h.Name
	}
	if !r.addName(name) {
		sink.send(msgError, []byte("duplicate worker name "+name))
		return "", terminal(fmt.Errorf("shard: duplicate worker name %q from %s", name, src))
	}
	defer r.dropName(name)

	if helloName != "" && (r.done() || r.complete()) {
		// Claimed from the hub as the campaign finished: re-park it for
		// the next job. Refusing it would end a connect-mode worker that
		// has already served.
		r.opts.Hub.repark(claimedWorker{name: name, conn: conn})
		parked = true
		return name, nil
	}
	if r.done() {
		// Worker connected after the campaign finished: one line, no
		// campaign state touched.
		sink.send(msgError, []byte("job complete"))
		return name, nil
	}

	// From here on, completion of the last range anywhere ends this
	// connection's reads: the waker forces the read deadline into the
	// past, and timedConn turns it into errJobDone.
	tc.done = r.d.allDone
	released := make(chan struct{})
	defer close(released)
	go func() {
		select {
		case <-r.d.allDone:
			conn.SetReadDeadline(time.Now())
		case <-released:
		}
	}()
	letGo := func() (string, error) {
		sink.send(msgQuit, nil)
		return name, nil
	}

	if err := sink.send(msgJob, r.payload); err != nil {
		return name, fmt.Errorf("shard: sending job to %s: %w", name, err)
	}
	typ, payload, err := readFrameSkipPing(br)
	if errors.Is(err, errJobDone) {
		return letGo() // the job completed while this worker set up
	}
	if err != nil {
		return name, fmt.Errorf("shard: reading ready from %s: %w", name, err)
	}
	switch typ {
	case msgError:
		return name, terminal(fmt.Errorf("shard: worker %s rejected job: %s", name, payload))
	case msgReady:
		if !bytes.Equal(payload, r.hash[:]) {
			return name, terminal(fmt.Errorf("shard: worker %s acknowledged a different job (hash mismatch — stale worker binary?)", name))
		}
	default:
		return name, fmt.Errorf("shard: expected ready frame from %s, got type %d", name, typ)
	}

	ws := func() *WorkerStats {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.workers[name]
	}()
	for {
		idx, _, ok := r.d.next()
		if !ok {
			return letGo()
		}
		if err := sink.send(msgShard, encodeShard(r.ranges[idx])); err != nil {
			r.redeal(idx)
			return name, fmt.Errorf("shard: assigning range %v to %s: %w", r.ranges[idx], name, err)
		}
		typ, payload, err := readFrameSkipPing(br)
		if err != nil {
			r.redeal(idx)
			if errors.Is(err, errJobDone) {
				// The range completed elsewhere while this straggler was
				// still executing it.
				return letGo()
			}
			return name, fmt.Errorf("shard: reading result for %v from %s: %w", r.ranges[idx], name, err)
		}
		switch typ {
		case msgResult:
			res, cpu, size, err := unmarshalResult(payload)
			if err != nil {
				r.redeal(idx)
				return name, err
			}
			if res.Range != r.ranges[idx] {
				r.redeal(idx)
				return name, fmt.Errorf("shard: worker %s answered range %v for assignment %v", name, res.Range, r.ranges[idx])
			}
			r.mu.Lock()
			ws.CPUNanos += cpu
			ws.ResultBytes += int64(size)
			r.mu.Unlock()
			if r.d.complete(idx) {
				r.mu.Lock()
				ws.Shards++
				r.mu.Unlock()
				r.reg.Counter("shard_shards_executed_total").Inc()
				r.reg.Counter("shard_result_bytes_total").Add(int64(size))
				if r.opts.Stream != nil {
					// Raw stream bytes, exactly as the worker encoded
					// them; the header re-decode is cheap next to the
					// stream itself.
					if _, stream, serr := decodeResult(payload); serr == nil {
						r.opts.Stream(res.Range, stream)
					}
				}
				r.emitMu.Lock()
				r.emit(res)
				r.emitMu.Unlock()
			} else {
				r.mu.Lock()
				ws.Duplicates++
				r.mu.Unlock()
				r.reg.Counter("shard_duplicate_results_total").Inc()
			}
		case msgError:
			// A shard error is fatal for this worker and not redialed —
			// the range is re-dealt to survivors, so a deterministic
			// failure surfaces as every worker dying with the same error
			// (and the unexecuted-ranges check firing) rather than a
			// retry livelock.
			r.redeal(idx)
			return name, terminal(fmt.Errorf("shard: range %v failed in worker %s: %s", r.ranges[idx], name, payload))
		default:
			r.redeal(idx)
			return name, fmt.Errorf("shard: unexpected frame type %d from %s awaiting result", typ, name)
		}
	}
}
