package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"flowery/internal/campaign"
	"flowery/internal/telemetry"
)

// This file is the socket transport: the same length-framed protocol
// the pipe Pool speaks over stdin/stdout, run over TCP between a
// coordinator (RemotePool) and workers on other machines (RunWorker,
// i.e. `flowery shard-worker -connect/-listen`), plus the robustness
// the pipe transport never needed — the pipe to a child process either
// works or EOFs, while a network peer can crash, hang, or go silent
// behind a partition. Concretely (DESIGN.md §17):
//
//   - hello handshake: the worker always speaks first (msgHello with
//     protocol version + registered name), so version skew and fleet
//     misconfiguration (duplicate names) surface as one-line errors at
//     connect time, before any campaign state exists;
//   - per-frame deadlines: every coordinator read carries a deadline
//     slice of the heartbeat interval, every write a bounded deadline;
//   - application-level heartbeats: workers ping while executing (and
//     while parked in a Hub), so a coordinator can tell "slow worker,
//     still alive" from "gone" — any byte of progress resets the miss
//     count, so a worker trickling a large result is never declared
//     dead while it is demonstrably streaming;
//   - bounded reconnect: dialed addresses are redialed with capped
//     exponential backoff plus deterministic jitter;
//   - automatic re-deal: shards assigned to a dead connection return to
//     the dispatcher queue. Shards are deterministic and the dispatcher
//     accepts only the first completion of a range, so re-execution —
//     whether from a steal, a redial, or a re-deal — is exact: merged
//     Stats are bit-identical to the single-process run no matter which
//     worker ran what, how often, or how it died.
//
// Faults in the fault-injection fleet itself are exercised the same way
// the fleet exercises target programs: chaos_test.go injects drops,
// delays, truncations, and SIGKILLs at scripted points and asserts the
// merged statistics never change.

// Remote transport defaults; every one is overridable via RemoteOpts /
// WorkerOpts (CLI: -heartbeat, -redials, and friends).
const (
	// DefaultHeartbeat is the worker ping interval and the coordinator's
	// per-read deadline slice.
	DefaultHeartbeat = 1 * time.Second
	// DefaultHeartbeatMiss is how many consecutive silent deadline
	// slices (no bytes, no ping) declare a connection dead.
	DefaultHeartbeatMiss = 3
	// DefaultRedials bounds reconnect attempts per address per outage.
	DefaultRedials = 5
	// DefaultBackoffBase and DefaultBackoffMax shape the reconnect
	// backoff schedule (see backoffDelay).
	DefaultBackoffBase = 100 * time.Millisecond
	DefaultBackoffMax  = 5 * time.Second
)

// RemoteOpts configures a RemotePool. At least one worker source (Dial
// addresses, a Listen address, or a Hub) must be set.
type RemoteOpts struct {
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
	// single byte of progress.
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

	// Metrics, when non-nil, receives the transport counters
	// (shard_remote_connects_total, shard_remote_disconnects_total,
	// shard_remote_redials_total, shard_remote_heartbeats_missed_total,
	// shard_shards_redealt_total) plus the per-worker shard gauges and
	// the same pool counters the pipe transport emits.
	Metrics *telemetry.Registry

	// sleep, when non-nil, replaces the real backoff sleep (tests run a
	// fake clock through it). It returns false to abort the wait.
	sleep func(time.Duration) bool
	// dialTimeout overrides the connect timeout (tests).
	dialTimeout time.Duration
}

func (o RemoteOpts) withDefaults() RemoteOpts {
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

// RemotePool is a campaign.ShardExecutor that farms shards to socket
// workers. Construct one per campaign with NewRemotePool; Execute is
// not reentrant.
type RemotePool struct {
	job  Job
	opts RemoteOpts

	mu    sync.Mutex
	stats PoolStats
}

// NewRemotePool builds a socket-transport pool for one campaign job
// (same Job contract as NewPool: campaign knobs are overwritten from
// the Spec at Execute time).
func NewRemotePool(job Job, opts RemoteOpts) *RemotePool {
	return &RemotePool{job: job, opts: opts.withDefaults()}
}

// Stats returns the statistics of the last Execute call, one
// WorkerStats per registered worker name (accumulated across that
// worker's reconnects), sorted by name.
func (p *RemotePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// errJobDone aborts a deadline-sliced read when the campaign completed
// while this connection was idle or awaiting a straggler duplicate; the
// serve loop treats it as a clean exit.
var errJobDone = errors.New("shard: job complete")

// errRejected marks a coordinator's one-line refusal of a worker
// (stale protocol, duplicate name, job complete).
var errRejected = errors.New("shard: coordinator rejected worker")

// terminalError marks a per-connection failure that redialing cannot
// fix (job rejected deterministically, hash mismatch, protocol skew);
// the dial loop gives the address up instead of burning its budget.
type terminalError struct{ err error }

func (t terminalError) Error() string { return t.err.Error() }
func (t terminalError) Unwrap() error { return t.err }

func terminal(err error) error  { return terminalError{err} }
func isTerminal(err error) bool { var t terminalError; return errors.As(err, &t) }

// remoteRun is the per-Execute state shared by every connection.
type remoteRun struct {
	pool    *RemotePool
	opts    RemoteOpts
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

// Execute implements campaign.ShardExecutor over the socket transport.
func (p *RemotePool) Execute(spec campaign.Spec, ranges []campaign.ShardRange, emit func(campaign.ShardResult)) error {
	opts := p.opts
	if len(opts.Dial) == 0 && opts.Listen == "" && opts.Hub == nil {
		return fmt.Errorf("shard: remote pool has no worker source (dial list, listen address, or hub)")
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

	r := &remoteRun{
		pool:    p,
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

	var connWG sync.WaitGroup // per-connection serve goroutines
	var srcWG sync.WaitGroup  // worker-source goroutines

	// mortal sources can run out (every dial budget exhausted); a
	// listener or hub is immortal — workers may always arrive later.
	mortalDone := make(chan struct{})
	immortal := opts.Listen != "" || opts.Hub != nil
	var mortals sync.WaitGroup
	for _, addr := range opts.Dial {
		addr := addr
		srcWG.Add(1)
		mortals.Add(1)
		go func() {
			defer srcWG.Done()
			defer mortals.Done()
			r.dialWorker(addr)
		}()
	}
	go func() {
		mortals.Wait()
		close(mortalDone)
	}()

	var ln net.Listener
	if opts.Listen != "" {
		ln, err = net.Listen("tcp", opts.Listen)
		if err != nil {
			r.shutdown()
			return fmt.Errorf("shard: remote listen: %w", err)
		}
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
		return fmt.Errorf("shard: ranges left unexecuted after remote worker failures: %s",
			strings.Join(r.errs, "; "))
	}
	return nil
}

func (r *remoteRun) shutdown() { r.stopOnce.Do(func() { close(r.stop) }) }

func (r *remoteRun) done() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// complete reports whether every range has a result.
func (r *remoteRun) complete() bool {
	select {
	case <-r.d.allDone:
		return true
	default:
		return false
	}
}

func (r *remoteRun) recordErr(who string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errs = append(r.errs, fmt.Sprintf("%s: %v", who, err))
	if ws := r.workers[who]; ws != nil {
		ws.Err = err
	}
}

// addName registers a connected worker name; duplicates are refused so
// two hosts launched with the same identity surface at connect time.
func (r *remoteRun) addName(name string) bool {
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

func (r *remoteRun) dropName(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.names, name)
}

func (r *remoteRun) flushStats() PoolStats {
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
func (r *remoteRun) redeal(idx int) {
	if r.d.requeue(idx) {
		r.reg.Counter("shard_shards_redealt_total").Inc()
	}
}

// dialWorker owns one dialed address: connect, serve, and on connection
// death redial with capped exponential backoff until the job completes,
// the failure is terminal, or the redial budget runs out.
func (r *remoteRun) dialWorker(addr string) {
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
func (r *remoteRun) pause(d time.Duration) bool {
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
func (r *remoteRun) acceptWorkers(ln net.Listener, connWG *sync.WaitGroup) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed at teardown
		}
		r.reg.Counter("shard_remote_connects_total").Inc()
		connWG.Add(1)
		go func() {
			defer connWG.Done()
			name, serr := r.serveConn(conn, conn.RemoteAddr().String(), "")
			if serr != nil {
				r.reg.Counter("shard_remote_disconnects_total").Inc()
				who := conn.RemoteAddr().String()
				if name != "" {
					who = name
				}
				r.recordErr(who, serr)
			}
		}()
	}
}

// claimWorkers pulls registered workers from the hub as they become
// available until the campaign completes. It stops claiming as soon as
// the last range is done: workers quit by this campaign re-park on the
// hub for the next one, and must not be claimed (and refused) again.
func (r *remoteRun) claimWorkers(hub *Hub, connWG *sync.WaitGroup) {
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
			name, serr := r.serveConn(w.conn, w.name, w.name)
			if serr != nil {
				r.reg.Counter("shard_remote_disconnects_total").Inc()
				who := w.name
				if name != "" {
					who = name
				}
				r.recordErr(who, serr)
			}
		}()
	}
}

// serveConn runs the coordinator half of the protocol on one socket:
// hello validation (unless the hub already performed it — helloName is
// then the pre-validated name), job + ready-hash handshake, then the
// same deal-until-dry loop as the pipe transport, with deadline-sliced
// reads and re-deal on death. Returns the worker's registered name (""
// if the connection died before hello) and nil on clean completion.
func (r *remoteRun) serveConn(conn net.Conn, src, helloName string) (string, error) {
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
		done:  r.d.allDone,
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

	if err := sink.send(msgJob, r.payload); err != nil {
		return name, fmt.Errorf("shard: sending job to %s: %w", name, err)
	}
	typ, payload, err := readFrameSkipPing(br)
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
			sink.send(msgQuit, nil)
			return name, nil
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
				// still executing it; let the worker go cleanly.
				return name, nil
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
			// Same semantics as the pipe transport: a shard error is
			// fatal for this worker and not redialed — a deterministic
			// failure must not become a retry livelock.
			r.redeal(idx)
			return name, terminal(fmt.Errorf("shard: range %v failed in worker %s: %s", r.ranges[idx], name, payload))
		default:
			r.redeal(idx)
			return name, fmt.Errorf("shard: unexpected frame type %d from %s awaiting result", typ, name)
		}
	}
}

// timedConn slices every Read into heartbeat-interval deadlines. A
// slice that times out with zero bytes is a miss; `limit` consecutive
// misses declare the peer dead. Any byte of progress — a result
// trickling in, a heartbeat ping — resets the count, which is exactly
// what keeps a slow-but-alive worker streaming a large reclog result
// from being declared dead (regression-pinned in backoff_test.go).
type timedConn struct {
	conn   net.Conn
	slice  time.Duration
	limit  int
	misses int
	done   <-chan struct{} // campaign completion: reads abort cleanly
	onMiss func()
}

func (t *timedConn) Read(p []byte) (int, error) {
	for {
		if t.slice > 0 {
			t.conn.SetReadDeadline(time.Now().Add(t.slice))
		}
		n, err := t.conn.Read(p)
		if n > 0 {
			t.misses = 0
			return n, nil
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			if t.done != nil {
				select {
				case <-t.done:
					return 0, errJobDone
				default:
				}
			}
			t.misses++
			if t.onMiss != nil {
				t.onMiss()
			}
			if t.misses >= t.limit {
				return 0, fmt.Errorf("shard: peer silent for %d heartbeat intervals: %w", t.misses, err)
			}
			continue
		}
		if err == nil {
			err = io.ErrNoProgress
		}
		return 0, err
	}
}

// deadlineWriter bounds every write: a peer that stops draining its
// socket fails the send instead of wedging the sender forever.
type deadlineWriter struct {
	conn net.Conn
	d    time.Duration
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	if w.d > 0 {
		w.conn.SetWriteDeadline(time.Now().Add(w.d))
	}
	return w.conn.Write(p)
}

// backoffDelay returns the pause before reconnect attempt n (1-based)
// to key: base·2^(n-1) plus deterministic jitter in [0, delay/2)
// derived from a splitmix64 of the key and attempt — reproducible
// (golden-pinned in backoff_test.go) yet decorrelated across
// addresses, so a fleet rebooting together does not redial in
// lockstep. The result is capped at max.
func backoffDelay(attempt int, base, max time.Duration, key string) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	var h uint64 = 0x9e3779b97f4a7c15
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001b3
	}
	j := splitmix64(h ^ uint64(attempt))
	d += time.Duration(uint64(d/2) * (j >> 48) / (1 << 16))
	if d > max {
		d = max
	}
	return d
}

// splitmix64 is the standard finalizer (same constants campaign and
// section use for their derived seed streams).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// WorkerOpts configures the worker side of the socket transport
// (`flowery shard-worker -connect/-listen`).
type WorkerOpts struct {
	// Connect is the coordinator (or floweryd -shard-listen hub) address
	// to dial. After each completed job the worker re-registers, so one
	// long-lived worker process serves many campaigns. Mutually
	// exclusive with Listen.
	Connect string
	// Listen is a host:port (or host:0) to serve coordinators on,
	// one connection at a time.
	Listen string
	// AddrFile, with Listen, receives the bound address once listening
	// (host:0 resolution for scripts — same contract as floweryd's
	// -addr-file).
	AddrFile string
	// Name is the identity registered in the hello (default
	// "<hostname>-<pid>"). Coordinators reject duplicate names.
	Name string
	// Heartbeat is the ping interval (0 = DefaultHeartbeat).
	Heartbeat time.Duration
	// Redials bounds reconnect attempts per outage in connect mode
	// (0 = DefaultRedials).
	Redials int
	// BackoffBase/BackoffMax shape the reconnect schedule.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Log receives one-line progress messages (nil = os.Stderr).
	Log io.Writer
}

func (o WorkerOpts) withDefaults() WorkerOpts {
	if o.Name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		o.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = DefaultHeartbeat
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
	if o.Log == nil {
		o.Log = os.Stderr
	}
	return o
}

// RunWorker runs a socket shard worker until its coordinator is done
// with it: in listen mode it serves connections until the process is
// killed; in connect mode it dials, serves, and re-registers after each
// job, exiting cleanly once it has served at least one job and the
// coordinator stops answering (or refuses it with "job complete").
func RunWorker(o WorkerOpts) error {
	o = o.withDefaults()
	switch {
	case o.Listen != "" && o.Connect != "":
		return fmt.Errorf("shard: worker cannot both listen and connect")
	case o.Listen != "":
		return listenWorker(o)
	case o.Connect != "":
		return connectWorker(o)
	default:
		return fmt.Errorf("shard: worker needs a -connect or -listen address")
	}
}

func listenWorker(o WorkerOpts) error {
	ln, err := net.Listen("tcp", o.Listen)
	if err != nil {
		return fmt.Errorf("shard: worker listen: %w", err)
	}
	defer ln.Close()
	if o.AddrFile != "" {
		if err := os.WriteFile(o.AddrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return fmt.Errorf("shard: writing addr file: %w", err)
		}
	}
	fmt.Fprintf(o.Log, "shard worker %s listening on %s\n", o.Name, ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		if err := serveWorkerConn(conn, o.Name, o.Heartbeat); err != nil {
			fmt.Fprintf(o.Log, "shard worker %s: connection ended: %v\n", o.Name, err)
		}
	}
}

func connectWorker(o WorkerOpts) error {
	served := 0
	redialsLeft := o.Redials
	attempt := 0
	dialTimeout := o.Heartbeat * time.Duration(DefaultHeartbeatMiss+1)
	var lastErr error
	for {
		conn, err := net.DialTimeout("tcp", o.Connect, dialTimeout)
		if err == nil {
			redialsLeft = o.Redials // registered: budget is per outage
			attempt = 0
			err = serveWorkerConn(conn, o.Name, o.Heartbeat)
			if err == nil {
				served++
				continue // re-register for the next job
			}
			if errors.Is(err, errRejected) {
				if served > 0 {
					// "job complete" after a served campaign: normal exit.
					return nil
				}
				return err
			}
			lastErr = err
		} else {
			lastErr = err
		}
		if redialsLeft <= 0 {
			if served > 0 {
				return nil // coordinator gone after a served campaign
			}
			return fmt.Errorf("shard: worker %s giving up on %s: %w", o.Name, o.Connect, lastErr)
		}
		redialsLeft--
		attempt++
		time.Sleep(backoffDelay(attempt, o.BackoffBase, o.BackoffMax, o.Connect))
	}
}

// serveWorkerConn speaks the worker half on one socket: hello first,
// then the verbatim ServeWorker loop, with a heartbeat goroutine
// sharing the frame sink so the coordinator sees liveness while
// RunRange executes. A failed ping write closes the connection, which
// unblocks the serve loop's read — that is how a worker parked against
// a dead coordinator notices.
func serveWorkerConn(conn net.Conn, name string, heartbeat time.Duration) error {
	defer conn.Close()
	sink := newFrameSink(&deadlineWriter{
		conn: conn,
		d:    heartbeat * time.Duration(DefaultHeartbeatMiss+1),
	})
	if err := sink.send(msgHello, encodeHello(hello{Proto: ProtoVersion, Name: name})); err != nil {
		return fmt.Errorf("shard: sending hello: %w", err)
	}
	stop := make(chan struct{})
	var pingWG sync.WaitGroup
	pingWG.Add(1)
	go func() {
		defer pingWG.Done()
		t := time.NewTicker(heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := sink.send(msgPing, nil); err != nil {
					conn.Close()
					return
				}
			}
		}
	}()
	err := serveFrames(bufio.NewReaderSize(conn, 1<<16), sink)
	close(stop)
	pingWG.Wait()
	return err
}
