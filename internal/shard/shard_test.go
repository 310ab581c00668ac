package shard

import (
	"io"
	"net"
	"os"
	"strings"
	"testing"

	"flowery/internal/backend"
	"flowery/internal/bench"
	"flowery/internal/campaign"
	"flowery/internal/dup"
	"flowery/internal/interp"
	"flowery/internal/ir"
	"flowery/internal/machine"
	"flowery/internal/sim"
	"flowery/internal/telemetry"
)

// TestMain lets this test binary double as the worker process: the pool
// re-executes os.Executable() with EnvWorker set and the connection on
// fd 3, and MaybeServeWorker diverts that invocation into the worker
// loop before any test runs.
func TestMain(m *testing.M) {
	MaybeServeWorker()
	os.Exit(m.Run())
}

// testModule returns a real registered benchmark: exercising the pool
// against the same programs the experiments shard is what makes the
// print → parse → re-lower transport a tested path rather than a hope.
func testModule(t *testing.T, name string) *ir.Module {
	t.Helper()
	bm, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q not registered", name)
	}
	m := bm.Build()
	m.AssignAddresses()
	return m
}

// asmFactory mirrors pipeline.Compiled: clone, lower, assign, machine.
func asmFactory(t *testing.T, pristine *ir.Module, gpr int) campaign.EngineFactory {
	t.Helper()
	m := ir.CloneModule(pristine)
	prog, err := backend.LowerCfg(m, backend.Config{GPRScratch: gpr})
	if err != nil {
		t.Fatal(err)
	}
	m.AssignAddresses()
	return func() (sim.Engine, error) { return machine.New(m, prog) }
}

func poolFor(t *testing.T, pristine *ir.Module, layer string, gpr, procs int, reg *telemetry.Registry) *Pool {
	t.Helper()
	return NewPool(Job{Module: pristine.String(), Layer: layer, GPRScratch: gpr},
		PoolOpts{Procs: procs, Metrics: reg})
}

func sameOutcomes(t *testing.T, tag string, a, b campaign.Stats) {
	t.Helper()
	if a.Runs != b.Runs || a.Counts != b.Counts || a.SDCByOrigin != b.SDCByOrigin ||
		a.GoldenDyn != b.GoldenDyn || a.GoldenInjectable != b.GoldenInjectable {
		t.Fatalf("%s: outcome drift:\n%+v\nvs\n%+v", tag, a, b)
	}
}

// TestPoolMatchesRunAsm is the core bit-identity gate: a campaign
// farmed to worker processes over the wire must reproduce single-process
// campaign.Run exactly, at the asm layer (module text → re-lower on the
// worker side) across several process/shard shapes. The protected input
// carries dup/checker flags the workers must read back from the text:
// the backend lowers checker compares differently, and SDC origins come
// from those flags.
func TestPoolMatchesRunAsm(t *testing.T) {
	protected := testModule(t, "crc32")
	if err := dup.ApplyFull(protected); err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name     string
		pristine *ir.Module
	}{{"crc32", testModule(t, "crc32")}, {"crc32+dup", protected}} {
		spec := campaign.Spec{Runs: 160, Seed: 42, Workers: 1}
		single, err := campaign.Run(asmFactory(t, in.pristine, 0), spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range []struct{ procs, shards int }{{1, 1}, {1, 4}, {2, 4}, {3, 8}} {
			pool := poolFor(t, in.pristine, LayerAsm, 0, shape.procs, nil)
			st, err := campaign.RunSharded(nil, spec, campaign.ShardOpts{Shards: shape.shards, Exec: pool})
			if err != nil {
				t.Fatalf("%s procs=%d shards=%d: %v", in.name, shape.procs, shape.shards, err)
			}
			sameOutcomes(t, in.name+" asm pool", single, st)
			ps := pool.Stats()
			if got := len(ps.Workers); got != min(shape.procs, shape.shards) {
				t.Fatalf("%s procs=%d shards=%d: %d workers spawned", in.name, shape.procs, shape.shards, got)
			}
			for _, w := range ps.Workers {
				if w.Shards > 0 && w.CPUNanos <= 0 {
					t.Fatalf("%s procs=%d: worker %s has no CPU accounting", in.name, shape.procs, w.Name)
				}
			}
		}
	}
}

// TestPoolMatchesRunIR covers the interpreter layer and the record
// stream: every run's record must arrive once, in order, identical to
// the in-process stream.
func TestPoolMatchesRunIR(t *testing.T) {
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

	var got []campaign.Record
	gotSpec := spec
	gotSpec.Records = func(r campaign.Record) { got = append(got, r) }
	pool := poolFor(t, pristine, LayerIR, 0, 2, nil)
	st, err := campaign.RunSharded(nil, gotSpec, campaign.ShardOpts{Shards: 5, Exec: pool})
	if err != nil {
		t.Fatal(err)
	}
	sameOutcomes(t, "ir pool", single, st)
	if len(got) != len(want) {
		t.Fatalf("records: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestPoolTelemetry pins the coordinator-side counters and — the
// satellite regression — that campaign counters are flushed exactly
// once even though workers executed the runs out of process.
func TestPoolTelemetry(t *testing.T) {
	pristine := testModule(t, "crc32")
	reg := telemetry.New()
	spec := campaign.Spec{Runs: 80, Seed: 4, Workers: 1, Metrics: reg}
	pool := poolFor(t, pristine, LayerAsm, 0, 2, reg)
	st, err := campaign.RunSharded(nil, spec, campaign.ShardOpts{Shards: 4, Exec: pool})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("campaign_runs_total").Value(); got != int64(spec.Runs) {
		t.Fatalf("campaign_runs_total = %d, want %d", got, spec.Runs)
	}
	var merged int
	for o := campaign.Outcome(0); o < campaign.NumOutcomes; o++ {
		merged += st.Counts[o]
	}
	if merged != spec.Runs {
		t.Fatalf("merged counts tally %d of %d runs", merged, spec.Runs)
	}
	if got := reg.Counter("shard_shards_executed_total").Value(); got != 4 {
		t.Fatalf("shard_shards_executed_total = %d, want 4", got)
	}
	if reg.Counter("shard_workers_spawned_total").Value() != 2 {
		t.Fatal("worker spawn counter missing")
	}
	if reg.Counter("shard_result_bytes_total").Value() <= 0 {
		t.Fatal("result byte counter missing")
	}
	// WorkerStats count every result sent (including dropped duplicates
	// of stolen shards); the counter tallies accepted results only.
	if ps := pool.Stats(); ps.TotalResultBytes() < reg.Counter("shard_result_bytes_total").Value() {
		t.Fatalf("result byte accounting mismatch: %d < %d", ps.TotalResultBytes(), reg.Counter("shard_result_bytes_total").Value())
	}
}

// TestWorkerRejectsGarbage: a coordinator speaking nonsense must get a
// clean error, not a hung or crashed worker.
func TestWorkerRejectsGarbage(t *testing.T) {
	for _, tc := range []struct {
		name    string
		typ     byte
		payload []byte
	}{
		{"garbage job", msgJob, []byte("{not json")},
		{"shard before job", msgShard, encodeShard(campaign.ShardRange{Lo: 0, Hi: 1})},
	} {
		coord, worker := net.Pipe()
		served := make(chan error, 1)
		go func() {
			_, err := serveWorkerConn(worker, WorkerOpts{Name: "w", Heartbeat: testHeartbeat})
			served <- err
		}()
		go io.Copy(io.Discard, coord) // hello, pings, the worker's error frame
		writeFrame(coord, tc.typ, tc.payload)
		if err := <-served; err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
		coord.Close()
	}
}

// TestPoolBadCommand: a spawned worker that isn't a flowery worker
// (here: /bin/false dies instantly) must surface as an error, not a
// hang, carrying whatever the dead child wrote to stderr.
func TestPoolBadCommand(t *testing.T) {
	pristine := testModule(t, "crc32")
	for _, argv := range [][]string{
		{"/bin/false"},
		{"/bin/sh", "-c", "echo worker exploded >&2; exit 1"},
	} {
		pool := NewPool(Job{Module: pristine.String(), Layer: LayerAsm},
			PoolOpts{Procs: 2, command: argv})
		_, err := campaign.RunSharded(nil, campaign.Spec{Runs: 20, Seed: 1}, campaign.ShardOpts{Shards: 2, Exec: pool})
		if err == nil {
			t.Fatalf("%v: dead worker command succeeded", argv)
		}
		if argv[0] == "/bin/sh" && !strings.Contains(err.Error(), "worker exploded") {
			t.Fatalf("%v: child stderr missing from %v", argv, err)
		}
	}
}

// TestJobRoundTrip pins the wire encodings themselves.
func TestJobRoundTrip(t *testing.T) {
	rg, err := decodeShard(encodeShard(campaign.ShardRange{Lo: 7, Hi: 300}))
	if err != nil || rg != (campaign.ShardRange{Lo: 7, Hi: 300}) {
		t.Fatalf("shard round trip: %v %v", rg, err)
	}
	if _, err := decodeShard([]byte{0x80}); err == nil {
		t.Fatal("truncated shard frame accepted")
	}
	res := campaign.ShardResult{
		Range:            campaign.ShardRange{Lo: 2, Hi: 4},
		GoldenDyn:        10,
		GoldenInjectable: 8,
		Records: []campaign.Record{
			{Run: 2, Outcome: campaign.OutcomeBenign, Target: 3, Bit: 5},
			{Run: 3, Outcome: campaign.OutcomeSDC, Target: 7, Bit: 1},
		},
	}
	res.Counts[campaign.OutcomeBenign] = 1
	res.Counts[campaign.OutcomeSDC] = 1
	res.SDCByOrigin[0] = 1
	frame, err := marshalResult(res, 12345)
	if err != nil {
		t.Fatal(err)
	}
	back, cpu, size, err := unmarshalResult(frame)
	if err != nil {
		t.Fatal(err)
	}
	if cpu != 12345 || size != len(frame) {
		t.Fatalf("cpu/size: %d %d", cpu, size)
	}
	if back.Range != res.Range || back.Counts != res.Counts || len(back.Records) != 2 ||
		back.Records[1] != res.Records[1] {
		t.Fatalf("result round trip: %+v", back)
	}
}
