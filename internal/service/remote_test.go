package service

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"flowery/internal/campaign"
	"flowery/internal/reclog"
	"flowery/internal/shard"
	"flowery/internal/store"
	"flowery/internal/telemetry"
)

// startHub stands up a worker hub with n in-process connect workers
// parked on it, mirroring `floweryd -shard-listen` plus a fleet of
// `flowery shard-worker -connect` processes.
func startHub(t *testing.T, n int, reg *telemetry.Registry) *shard.Hub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const heartbeat = 50 * time.Millisecond
	hub := shard.NewHub(ln, shard.HubOpts{Heartbeat: heartbeat, HeartbeatMiss: 10, Metrics: reg})
	var wg sync.WaitGroup
	t.Cleanup(func() { hub.Close(); wg.Wait() })
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			shard.RunWorker(shard.WorkerOpts{
				Connect:     hub.Addr().String(),
				Name:        fmt.Sprintf("svc-%d", i),
				Heartbeat:   heartbeat,
				Redials:     50,
				BackoffBase: time.Millisecond,
				BackoffMax:  5 * time.Millisecond,
				Log:         io.Discard,
			})
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for hub.Workers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers parked", hub.Workers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return hub
}

// TestRemoteWorkersJobViaHub runs a remote_workers campaign end to end
// through the daemon's hub — socket workers execute the shards, each
// shard's reclog bytes spill into the artifact store, and the composed
// log plus the merged stats must be byte-identical to the same job run
// locally.
func TestRemoteWorkersJobViaHub(t *testing.T) {
	reg := telemetry.New()
	st := store.NewMemory(reg)
	hub := startHub(t, 2, reg)
	_, c := newTestServer(t, Config{Artifacts: st, Telemetry: reg, Hub: hub})

	spec := testSpec()
	spec.Shards = 4
	spec.Records = true

	remote := spec
	remote.RemoteWorkers = true
	rr, err := c.Submit(remote)
	if err != nil {
		t.Fatal(err)
	}
	rji := waitDone(t, c, rr.ID)

	lr, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	lji := waitDone(t, c, lr.ID)

	got, want := *rji.Stats, *lji.Stats
	// Perf fields describe the actual execution: two socket workers pay
	// two setup costs (golden run, snapshots) where the local path pays
	// one. Everything else — outcomes, golden counts, pruning tallies —
	// must match bit for bit.
	got.Elapsed, want.Elapsed = 0, 0
	got.SimulatedInstrs, want.SimulatedInstrs = 0, 0
	if got != want {
		t.Fatalf("remote stats diverge from local:\nremote %+v\nlocal  %+v", got, want)
	}

	remoteLog, err := c.Reclog(rr.ID)
	if err != nil {
		t.Fatal(err)
	}
	localLog, err := c.Reclog(lr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remoteLog, localLog) {
		t.Fatalf("composed remote reclog (%d bytes) differs from local single-writer log (%d bytes)",
			len(remoteLog), len(localLog))
	}
	// The shard counters live on the job's own registry; prove the
	// shards actually rode the socket transport rather than a silent
	// local fallback.
	page, err := c.Metrics("/jobs/" + rr.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("shard_shards_executed_total %d", spec.Shards),
		"shard_remote_connects_total 2",
	} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("job metrics missing %q:\n%s", want, page)
		}
	}
}

// TestRemoteWorkersConsecutiveHubJobs: the workers of a finished
// hub-sharded job re-dial and re-park, and the next job must be able to
// claim them. A coordinator that keeps claiming after its campaign
// completes would refuse the re-parked workers with "job complete" —
// which ends a connect-mode worker that has served — and starve every
// later job.
func TestRemoteWorkersConsecutiveHubJobs(t *testing.T) {
	reg := telemetry.New()
	hub := startHub(t, 2, reg)
	_, c := newTestServer(t, Config{Artifacts: store.NewMemory(reg), Telemetry: reg, Hub: hub})
	for _, seed := range []int64{7, 8} {
		spec := testSpec()
		spec.Seed = seed // distinct jobs: neither is served from the store
		spec.Shards = 4
		spec.RemoteWorkers = true
		r, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if ji := waitDone(t, c, r.ID); ji.Stats == nil {
			t.Fatalf("job %s (seed %d) done without stats", r.ID, seed)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for hub.Workers() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 2 workers parked after two jobs", hub.Workers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRemoteWorkersRejectedWithoutHub: a remote_workers submission to a
// daemon started without -shard-listen must fail at submit time with a
// line naming the missing flag, not queue and then die.
func TestRemoteWorkersRejectedWithoutHub(t *testing.T) {
	_, c := newTestServer(t, Config{})
	spec := testSpec()
	spec.Shards = 4
	spec.RemoteWorkers = true
	if _, err := c.Submit(spec); err == nil || !strings.Contains(err.Error(), "-shard-listen") {
		t.Fatalf("err = %v, want missing-hub rejection", err)
	}
}

// TestComposeMatchesBatch pins the shardBlobs invariant directly:
// decoding per-shard streams in range order and re-encoding through one
// writer must reproduce the batch single-writer byte stream exactly,
// regardless of blob arrival order or whether blobs rode through the
// store.
func TestComposeMatchesBatch(t *testing.T) {
	recs := make([]reclog.Record, 40)
	for i := range recs {
		recs[i] = reclog.Record{Run: int64(i), Outcome: uint8(i % 5), Origin: uint8(i % 3), Target: int64(i * 7), Bit: uint8(i % 64)}
	}
	encode := func(rs []reclog.Record) []byte {
		var buf bytes.Buffer
		w := reclog.NewWriter(&buf)
		for _, r := range rs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := encode(recs)

	ranges := []campaign.ShardRange{{Lo: 13, Hi: 40}, {Lo: 0, Hi: 7}, {Lo: 7, Hi: 13}}
	for _, artifacts := range []store.Store{nil, store.NewMemory(nil)} {
		s := &shardBlobs{m: &Manager{cfg: Config{Artifacts: artifacts}}, job: "t"}
		for _, rg := range ranges { // deliberately out of range order
			s.put(rg, encode(recs[rg.Lo:rg.Hi]))
		}
		got, err := s.compose()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("store=%v: composed log (%d bytes) differs from batch log (%d bytes)",
				artifacts != nil, len(got), len(want))
		}
	}

	// A missing shard is a gap, not a silently short log.
	s := &shardBlobs{m: &Manager{}, job: "t"}
	s.put(campaign.ShardRange{Lo: 0, Hi: 7}, encode(recs[0:7]))
	s.put(campaign.ShardRange{Lo: 13, Hi: 40}, encode(recs[13:40]))
	if _, err := s.compose(); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("err = %v, want gap detection", err)
	}
}
