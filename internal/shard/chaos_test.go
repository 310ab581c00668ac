package shard

import (
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"

	"flowery/internal/campaign"
	"flowery/internal/telemetry"
)

// This file turns the fault-injection discipline on the fleet itself:
// scripted transport faults (drops, delays, mid-frame truncation) and a
// real SIGKILL'd worker process, each asserting the invariant the whole
// transport exists to uphold — merged Stats bit-identical to the
// single-process run, with lost shards visibly re-dealt.

// faultyConn wraps the worker side of a proxied connection and injects
// faults into the worker→coordinator byte stream: added latency per
// chunk, and a hard cut after `budget` bytes (mid-frame truncation —
// budgets are deliberately not frame-aligned).
type faultyConn struct {
	net.Conn
	delay  time.Duration
	budget int64 // bytes to pass before cutting; < 0 = unlimited
}

func (f *faultyConn) Read(p []byte) (int, error) {
	if f.budget == 0 {
		return 0, io.ErrClosedPipe // the cut
	}
	if f.budget > 0 && int64(len(p)) > f.budget {
		p = p[:f.budget] // truncate the final chunk exactly at the budget
	}
	n, err := f.Conn.Read(p)
	if f.budget > 0 {
		f.budget -= int64(n)
	}
	if f.delay > 0 && n > 0 {
		time.Sleep(f.delay)
	}
	return n, err
}

// chaosProxy fronts a real worker with a fault-injecting relay. Only
// the first connection suffers the scripted faults; redials get a clean
// path, so each test case models exactly one outage.
type chaosProxy struct {
	target string
	delay  time.Duration
	cut    int64 // worker→coordinator bytes before cutting; 0 = never
}

func (p *chaosProxy) start(t *testing.T) string {
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
		first := true
		for {
			coord, err := ln.Accept()
			if err != nil {
				return
			}
			worker, err := net.Dial("tcp", p.target)
			if err != nil {
				coord.Close()
				continue
			}
			faulty := first
			first = false
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.relay(coord, worker, faulty)
			}()
		}
	}()
	return ln.Addr().String()
}

func (p *chaosProxy) relay(coord, worker net.Conn, faulty bool) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // coordinator → worker, always clean
		defer wg.Done()
		io.Copy(worker, coord)
		worker.Close()
	}()
	var from io.Reader = worker
	if faulty {
		fc := &faultyConn{Conn: worker, delay: p.delay, budget: -1}
		if p.cut > 0 {
			fc.budget = p.cut
		}
		from = fc
	}
	io.Copy(coord, from)
	// A cut (or worker hangup) severs both directions at once, like a
	// crashed host: the campaign must notice via its read deadlines and
	// re-deal, not drain a half-dead relay.
	coord.Close()
	worker.Close()
	wg.Wait()
}

// TestChaosConnectionFaults drives one campaign per scripted fault
// through a single proxied worker and asserts the outcome invariant
// plus the expected re-deal/redial accounting.
func TestChaosConnectionFaults(t *testing.T) {
	pristine := testModule(t, "crc32")
	spec := campaign.Spec{Runs: 160, Seed: 11, Workers: 1}
	single, err := campaign.Run(asmFactory(t, pristine, 0), spec)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		cut        int64
		delay      time.Duration
		wantRedeal bool // a shard was in flight when the fault hit
		wantRedial bool
	}{
		// Cut mid-hello: the handshake dies before any assignment, so
		// the redial replays from scratch with nothing to re-deal.
		{name: "drop-during-handshake", cut: 20, wantRedial: true},
		// Cut mid-result: the in-flight shard must be re-dealt to the
		// redialed connection and the merged stats must not move.
		{name: "truncate-mid-result", cut: 600, wantRedeal: true, wantRedial: true},
		// Latency alone (a quarter heartbeat per chunk) is not a fault:
		// byte progress resets the miss count, so nothing is declared
		// dead and nothing is re-dealt.
		{name: "delay-only", delay: testHeartbeat / 4},
		{name: "delay-and-truncate", cut: 900, delay: testHeartbeat / 8, wantRedeal: true, wantRedial: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			checkGoroutines(t)
			proxy := &chaosProxy{
				target: startWorker(t, "chaos"),
				delay:  tc.delay,
				cut:    tc.cut,
			}
			reg := telemetry.New()
			opts := testRemoteOpts()
			opts.Dial = []string{proxy.start(t)}
			opts.Metrics = reg
			pool := remotePoolFor(t, pristine, LayerAsm, opts)
			st, err := campaign.RunSharded(nil, spec, campaign.ShardOpts{Shards: 8, Exec: pool})
			if err != nil {
				t.Fatal(err)
			}
			sameOutcomes(t, tc.name, single, st)

			redealt := reg.Counter("shard_shards_redealt_total").Value()
			redials := reg.Counter("shard_remote_redials_total").Value()
			if tc.wantRedeal && redealt < 1 {
				t.Fatalf("fault hit mid-shard but nothing re-dealt (redealt=%d)", redealt)
			}
			if !tc.wantRedeal && redealt != 0 {
				t.Fatalf("unexpected re-deals: %d", redealt)
			}
			if tc.wantRedial && redials < 1 {
				t.Fatalf("connection cut but never redialed (redials=%d)", redials)
			}
			if !tc.wantRedial && redials != 0 {
				t.Fatalf("healthy connection redialed %d times", redials)
			}
		})
	}
}

// TestChaosWorkerSIGKILL kills a real worker process mid-campaign — no
// quit handshake, no connection teardown, exactly like a SIGKILL or a
// host crash — and asserts a surviving worker absorbs the re-dealt
// shards with the merged statistics unchanged.
func TestChaosWorkerSIGKILL(t *testing.T) {
	checkGoroutines(t)
	pristine := testModule(t, "crc32")
	spec := campaign.Spec{Runs: 240, Seed: 5, Workers: 1}
	single, err := campaign.Run(asmFactory(t, pristine, 0), spec)
	if err != nil {
		t.Fatal(err)
	}

	addr := freeAddr(t)
	reg := telemetry.New()
	opts := testRemoteOpts()
	// The doomed subprocess runs default 1s heartbeats; give the
	// coordinator a tolerance far beyond its engine-setup time so the
	// only death observed is the scripted one.
	opts.Heartbeat = 200 * time.Millisecond
	opts.HeartbeatMiss = 25
	opts.Listen = addr
	opts.Metrics = reg

	// The doomed worker: this test binary re-executed in connect mode
	// (MaybeServeWorker in TestMain), exiting abruptly after its first
	// result.
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	doomed := exec.Command(self)
	doomed.Env = append(os.Environ(),
		EnvWorkerConnect+"="+addr,
		EnvChaosExitAfter+"=1")
	if err := doomed.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		doomed.Process.Kill()
		doomed.Wait()
	})

	// The survivor, in-process.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		RunWorker(WorkerOpts{
			Connect:     addr,
			Name:        "survivor",
			Heartbeat:   testHeartbeat,
			Redials:     50,
			BackoffBase: time.Millisecond,
			BackoffMax:  5 * time.Millisecond,
			Log:         io.Discard,
		})
	}()
	t.Cleanup(wg.Wait)

	pool := remotePoolFor(t, pristine, LayerAsm, opts)
	st, err := campaign.RunSharded(nil, spec, campaign.ShardOpts{Shards: 8, Exec: pool})
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, "sigkill chaos", single, st)
	if got := reg.Counter("shard_shards_redealt_total").Value(); got < 1 {
		t.Fatalf("worker killed mid-campaign but nothing re-dealt (redealt=%d)", got)
	}
	ps := pool.Stats()
	var survivor *WorkerStats
	for i := range ps.Workers {
		if ps.Workers[i].Name == "survivor" {
			survivor = &ps.Workers[i]
		}
	}
	if survivor == nil || survivor.Shards == 0 {
		t.Fatalf("survivor absorbed no shards: %+v", ps.Workers)
	}
}

// TestChaosLocalWorkerDies kills spawned children mid-campaign: every
// child inherits EnvChaosExitAfter=1 from the test's environment and
// exits abruptly right after its first result, with its next range in
// hand. A socket survivor — served in-process, where the hook is not
// read — joins once a re-deal has happened and absorbs the rest; the
// merged statistics must not move.
func TestChaosLocalWorkerDies(t *testing.T) {
	checkGoroutines(t)
	pristine := testModule(t, "crc32")
	spec := campaign.Spec{Runs: 240, Seed: 13, Workers: 1}
	single, err := campaign.Run(asmFactory(t, pristine, 0), spec)
	if err != nil {
		t.Fatal(err)
	}

	t.Setenv(EnvChaosExitAfter, "1")
	addr := freeAddr(t)
	reg := telemetry.New()
	opts := testRemoteOpts()
	// Children start a whole process (and, under -race, an instrumented
	// runtime) before their hello; give them the same slack as the
	// SIGKILL'd worker above.
	opts.Heartbeat = 200 * time.Millisecond
	opts.HeartbeatMiss = 25
	opts.Procs = 2
	opts.Listen = addr
	opts.Metrics = reg

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(30 * time.Second)
		for reg.Counter("shard_shards_redealt_total").Value() < 1 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Errorf("survivor: %v", err)
			return
		}
		serveWorkerConn(conn, WorkerOpts{Name: "survivor", Heartbeat: testHeartbeat})
	}()
	t.Cleanup(wg.Wait)

	pool := remotePoolFor(t, pristine, LayerAsm, opts)
	st, err := campaign.RunSharded(nil, spec, campaign.ShardOpts{Shards: 8, Exec: pool})
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, "dying children", single, st)
	if got := reg.Counter("shard_shards_redealt_total").Value(); got < 1 {
		t.Fatalf("children died mid-campaign but nothing re-dealt (redealt=%d)", got)
	}
	if got := reg.Counter("shard_workers_spawned_total").Value(); got != 2 {
		t.Fatalf("shard_workers_spawned_total = %d, want 2", got)
	}
}
