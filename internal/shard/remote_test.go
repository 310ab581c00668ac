package shard

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"flowery/internal/campaign"
	"flowery/internal/interp"
	"flowery/internal/reclog"
	"flowery/internal/sim"
	"flowery/internal/telemetry"
)

// testHeartbeat keeps transport liveness at millisecond scale so
// failure paths resolve quickly; the generous miss budget in
// testRemoteOpts is what keeps loaded CI machines from false-positive
// death verdicts.
const testHeartbeat = 50 * time.Millisecond

func testRemoteOpts() PoolOpts {
	return PoolOpts{
		Heartbeat:     testHeartbeat,
		HeartbeatMiss: 10,
		BackoffBase:   time.Millisecond,
		BackoffMax:    5 * time.Millisecond,
	}
}

// checkGoroutines pins teardown hygiene: every transport goroutine —
// serve loops, pingers, accept loops, hub parkers — must be gone
// shortly after the test body finishes. Register it before any other
// cleanup so it runs last.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// startWorker runs an in-process listen-mode worker: each accepted
// connection speaks the worker half exactly as
// `flowery shard-worker -listen` would. Returns the dial address.
func startWorker(t *testing.T, name string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				serveWorkerConn(conn, WorkerOpts{Name: name, Heartbeat: testHeartbeat})
			}()
		}
	}()
	return ln.Addr().String()
}

// fakeWorker runs fn on the first accepted connection — a scripted
// stand-in for a worker with one specific defect.
func fakeWorker(t *testing.T, fn func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fn(conn)
	}()
	return ln.Addr().String()
}

// freeAddr reserves and releases an ephemeral port; the tiny window
// before the real listener binds it is acceptable in a test harness.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func remotePoolFor(t *testing.T, pristine fmt.Stringer, layer string, opts PoolOpts) *Pool {
	t.Helper()
	return NewPool(Job{Module: pristine.String(), Layer: layer}, opts)
}

// TestRemoteDialMatchesRun is the socket twin of TestPoolMatchesRunAsm:
// a campaign dealt to two TCP workers must merge to Stats bit-identical
// to single-process campaign.Run, with every shard accounted to a named
// worker and the transport counters consistent.
func TestRemoteDialMatchesRun(t *testing.T) {
	checkGoroutines(t)
	pristine := testModule(t, "crc32")
	spec := campaign.Spec{Runs: 160, Seed: 42, Workers: 1}
	single, err := campaign.Run(asmFactory(t, pristine, 0), spec)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	opts := testRemoteOpts()
	opts.Dial = []string{startWorker(t, "alpha"), startWorker(t, "beta")}
	opts.Metrics = reg
	pool := remotePoolFor(t, pristine, LayerAsm, opts)
	st, err := campaign.RunSharded(nil, spec, campaign.ShardOpts{Shards: 8, Exec: pool})
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, "remote dial", single, st)

	ps := pool.Stats()
	if len(ps.Workers) != 2 || ps.Workers[0].Name != "alpha" || ps.Workers[1].Name != "beta" {
		t.Fatalf("worker stats: %+v", ps.Workers)
	}
	shards := 0
	for _, w := range ps.Workers {
		shards += w.Shards
		if w.Err != nil {
			t.Fatalf("worker %s: %v", w.Name, w.Err)
		}
		if w.CPUNanos <= 0 {
			t.Fatalf("worker %s: no CPU accounting", w.Name)
		}
	}
	if shards != 8 {
		t.Fatalf("accepted shards %d, want 8", shards)
	}
	if got := reg.Counter("shard_remote_connects_total").Value(); got != 2 {
		t.Fatalf("shard_remote_connects_total = %d, want 2", got)
	}
	if got := reg.Counter("shard_shards_executed_total").Value(); got != 8 {
		t.Fatalf("shard_shards_executed_total = %d, want 8", got)
	}
	if got := reg.Counter("shard_shards_redealt_total").Value(); got != 0 {
		t.Fatalf("%d re-deals on a healthy run", got)
	}
	if got := reg.Gauge(workerGauge("alpha")).Value() + reg.Gauge(workerGauge("beta")).Value(); got != 8 {
		t.Fatalf("per-worker gauges tally %g shards, want 8", got)
	}
}

// TestRemoteRecordsAndStream covers the IR layer, the per-run record
// path, and the Stream hook: every accepted shard's raw reclog bytes
// must arrive exactly once and decode to that range's records.
func TestRemoteRecordsAndStream(t *testing.T) {
	checkGoroutines(t)
	pristine := testModule(t, "susan")
	irFactory := func() (sim.Engine, error) { return interp.New(pristine), nil }

	var want []campaign.Record
	spec := campaign.Spec{Runs: 90, Seed: 9, Workers: 1}
	wantSpec := spec
	wantSpec.Records = func(r campaign.Record) { want = append(want, r) }
	single, err := campaign.Run(irFactory, wantSpec)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	blobs := map[campaign.ShardRange][]byte{}
	opts := testRemoteOpts()
	opts.Dial = []string{startWorker(t, "w1"), startWorker(t, "w2")}
	opts.Stream = func(rg campaign.ShardRange, stream []byte) {
		mu.Lock()
		blobs[rg] = append([]byte(nil), stream...)
		mu.Unlock()
	}
	var got []campaign.Record
	gotSpec := spec
	gotSpec.Records = func(r campaign.Record) { got = append(got, r) }
	pool := remotePoolFor(t, pristine, LayerIR, opts)
	st, err := campaign.RunSharded(nil, gotSpec, campaign.ShardOpts{Shards: 5, Exec: pool})
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, "remote records", single, st)
	if len(got) != len(want) {
		t.Fatalf("records: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if len(blobs) != 5 {
		t.Fatalf("streamed %d shard blobs, want 5", len(blobs))
	}
	for rg, stream := range blobs {
		recs, err := reclog.ReadAll(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("blob %v: %v", rg, err)
		}
		if len(recs) != rg.Hi-rg.Lo || int(recs[0].Run) != rg.Lo {
			t.Fatalf("blob %v carries %d records starting at run %d", rg, len(recs), recs[0].Run)
		}
	}
}

// TestRemoteListenMode reverses the dial direction: the coordinator
// listens, two real RunWorker loops connect, and both must exit cleanly
// (nil error) once the campaign quits them and the listener goes away.
func TestRemoteListenMode(t *testing.T) {
	checkGoroutines(t)
	pristine := testModule(t, "crc32")
	spec := campaign.Spec{Runs: 120, Seed: 7, Workers: 1}
	single, err := campaign.Run(asmFactory(t, pristine, 0), spec)
	if err != nil {
		t.Fatal(err)
	}
	addr := freeAddr(t)
	opts := testRemoteOpts()
	opts.Listen = addr
	pool := remotePoolFor(t, pristine, LayerAsm, opts)

	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[i] = RunWorker(WorkerOpts{
				Connect:     addr,
				Name:        fmt.Sprintf("conn-%d", i),
				Heartbeat:   testHeartbeat,
				Redials:     50,
				BackoffBase: time.Millisecond,
				BackoffMax:  5 * time.Millisecond,
				Log:         io.Discard,
			})
		}()
	}
	st, err := campaign.RunSharded(nil, spec, campaign.ShardOpts{Shards: 6, Exec: pool})
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, "remote listen", single, st)
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d exited with %v", i, werr)
		}
	}
}

// TestRemoteHubMode runs the floweryd topology: workers pre-register
// with a Hub, the campaign claims them, and they re-register once quit
// so the next campaign finds them parked again.
func TestRemoteHubMode(t *testing.T) {
	checkGoroutines(t)
	pristine := testModule(t, "crc32")
	spec := campaign.Spec{Runs: 120, Seed: 3, Workers: 1}
	single, err := campaign.Run(asmFactory(t, pristine, 0), spec)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hub := NewHub(ln, HubOpts{Heartbeat: testHeartbeat, HeartbeatMiss: 10})
	var wg sync.WaitGroup
	t.Cleanup(func() { hub.Close(); wg.Wait() })
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunWorker(WorkerOpts{
				Connect:     hub.Addr().String(),
				Name:        fmt.Sprintf("hub-%d", i),
				Heartbeat:   testHeartbeat,
				Redials:     50,
				BackoffBase: time.Millisecond,
				BackoffMax:  5 * time.Millisecond,
				Log:         io.Discard,
			})
		}()
	}
	waitParked := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for hub.Workers() < n {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d workers parked", hub.Workers(), n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitParked(2)

	opts := testRemoteOpts()
	opts.Hub = hub
	pool := remotePoolFor(t, pristine, LayerAsm, opts)
	st, err := campaign.RunSharded(nil, spec, campaign.ShardOpts{Shards: 6, Exec: pool})
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, "remote hub", single, st)
	// Quit workers re-dial the hub and park for the next campaign.
	waitParked(2)
}

// TestRemoteRejectsWrongJobHash: a worker acknowledging a different job
// than the coordinator sent (version skew between binaries) must fail
// the handshake terminally — no redial burns the budget on it.
func TestRemoteRejectsWrongJobHash(t *testing.T) {
	checkGoroutines(t)
	pristine := testModule(t, "crc32")
	reg := telemetry.New()
	opts := testRemoteOpts()
	opts.Metrics = reg
	opts.Dial = []string{fakeWorker(t, func(conn net.Conn) {
		sink := newFrameSink(conn)
		sink.send(msgHello, encodeHello(hello{Proto: ProtoVersion, Name: "stale"}))
		br := bufio.NewReaderSize(conn, 1<<16)
		if typ, _, err := readFrameSkipPing(br); err != nil || typ != msgJob {
			return
		}
		var wrong [32]byte
		sink.send(msgReady, wrong[:])
	})}
	pool := remotePoolFor(t, pristine, LayerAsm, opts)
	_, err := campaign.RunSharded(nil, campaign.Spec{Runs: 20, Seed: 1}, campaign.ShardOpts{Shards: 2, Exec: pool})
	if err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("err = %v, want hash mismatch", err)
	}
	if got := reg.Counter("shard_remote_redials_total").Value(); got != 0 {
		t.Fatalf("terminal handshake failure redialed %d times", got)
	}
}

// TestRemoteRejectsStaleProto: protocol version skew surfaces at
// connect time as a one-line terminal error on both ends.
func TestRemoteRejectsStaleProto(t *testing.T) {
	checkGoroutines(t)
	pristine := testModule(t, "crc32")
	reg := telemetry.New()
	opts := testRemoteOpts()
	opts.Metrics = reg
	opts.Dial = []string{fakeWorker(t, func(conn net.Conn) {
		newFrameSink(conn).send(msgHello, encodeHello(hello{Proto: ProtoVersion + 1, Name: "future"}))
		// Read the refusal so the coordinator's send cannot block.
		readFrameSkipPing(bufio.NewReader(conn))
	})}
	pool := remotePoolFor(t, pristine, LayerAsm, opts)
	_, err := campaign.RunSharded(nil, campaign.Spec{Runs: 20, Seed: 1}, campaign.ShardOpts{Shards: 2, Exec: pool})
	if err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("err = %v, want version skew", err)
	}
	if got := reg.Counter("shard_remote_redials_total").Value(); got != 0 {
		t.Fatalf("terminal handshake failure redialed %d times", got)
	}
}

// TestRemoteDuplicateNameRefused: two workers claiming the same
// identity is a fleet misconfiguration; the second must be turned away
// while the first is connected. Scripted for determinism: A holds its
// slot until B has been refused.
func TestRemoteDuplicateNameRefused(t *testing.T) {
	checkGoroutines(t)
	pristine := testModule(t, "crc32")
	reg := telemetry.New()
	bGo := make(chan struct{})
	bRefused := make(chan struct{})

	opts := testRemoteOpts()
	opts.Metrics = reg
	opts.Dial = []string{
		fakeWorker(t, func(conn net.Conn) { // A: registers first, holds the name
			sink := newFrameSink(conn)
			sink.send(msgHello, encodeHello(hello{Proto: ProtoVersion, Name: "twin"}))
			br := bufio.NewReaderSize(conn, 1<<16)
			typ, _, err := readFrameSkipPing(br)
			if err != nil || typ != msgJob {
				t.Errorf("worker A: expected job, got type %d err %v", typ, err)
				return
			}
			close(bGo) // the coordinator has registered "twin"
			<-bRefused // keep the slot until B was turned away
			sink.send(msgError, []byte("scripted failure"))
		}),
		fakeWorker(t, func(conn net.Conn) { // B: same name, must be refused
			<-bGo
			sink := newFrameSink(conn)
			sink.send(msgHello, encodeHello(hello{Proto: ProtoVersion, Name: "twin"}))
			typ, payload, err := readFrameSkipPing(bufio.NewReader(conn))
			if err != nil || typ != msgError || !strings.Contains(string(payload), "duplicate worker name") {
				t.Errorf("worker B: got type %d payload %q err %v, want duplicate refusal", typ, payload, err)
			}
			close(bRefused)
		}),
	}
	pool := remotePoolFor(t, pristine, LayerAsm, opts)
	_, err := campaign.RunSharded(nil, campaign.Spec{Runs: 20, Seed: 1}, campaign.ShardOpts{Shards: 2, Exec: pool})
	if err == nil || !strings.Contains(err.Error(), "duplicate worker name") {
		t.Fatalf("err = %v, want duplicate worker name", err)
	}
}

// TestRemoteLateWorkerTurnedAway pins the post-completion path: a
// worker connecting after the last shard merged gets a one-line
// "job complete" refusal, no campaign state is touched, and serveConn
// reports a clean (nil) exit so no error noise is recorded.
func TestRemoteLateWorkerTurnedAway(t *testing.T) {
	checkGoroutines(t)
	r := &poolRun{
		opts:    testRemoteOpts().withDefaults(),
		d:       newDispatcher(0), // zero shards: allDone from the start
		stop:    make(chan struct{}),
		names:   make(map[string]bool),
		workers: make(map[string]*WorkerStats),
	}
	r.shutdown()
	coord, worker := net.Pipe()
	defer worker.Close()
	done := make(chan error, 1)
	go func() {
		sink := newFrameSink(worker)
		if err := sink.send(msgHello, encodeHello(hello{Proto: ProtoVersion, Name: "late"})); err != nil {
			done <- err
			return
		}
		typ, payload, err := readFrameSkipPing(bufio.NewReader(worker))
		if err != nil {
			done <- err
			return
		}
		if typ != msgError || !strings.Contains(string(payload), "job complete") {
			done <- fmt.Errorf("late worker got frame %d %q, want job-complete refusal", typ, payload)
			return
		}
		done <- nil
	}()
	name, err := r.serveConn(coord, "pipe", "")
	if err != nil || name != "late" {
		t.Fatalf("serveConn: name %q err %v, want clean late-worker exit", name, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWorkerRejectedBeforeServing pins the worker-side half of the
// refusal handshake: a refusal before any job was served is an error
// (errRejected), not a silent exit — a fleet misconfiguration must be
// visible in the worker's own exit status.
func TestWorkerRejectedBeforeServing(t *testing.T) {
	checkGoroutines(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() { // fake coordinator: read hello, refuse
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		readFrameSkipPing(bufio.NewReaderSize(conn, 1<<16))
		newFrameSink(conn).send(msgError, []byte("job complete"))
	}()
	err = RunWorker(WorkerOpts{
		Connect:     ln.Addr().String(),
		Name:        "late",
		Heartbeat:   testHeartbeat,
		Redials:     -1,
		BackoffBase: time.Millisecond,
		BackoffMax:  time.Millisecond,
		Log:         io.Discard,
	})
	if err == nil || !errors.Is(err, errRejected) {
		t.Fatalf("err = %v, want rejection", err)
	}
}
