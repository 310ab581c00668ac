package shard

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"

	"flowery/internal/asm"
	"flowery/internal/backend"
	"flowery/internal/campaign"
	"flowery/internal/interp"
	"flowery/internal/ir"
	"flowery/internal/machine"
	"flowery/internal/reclog"
	"flowery/internal/sim"
)

// EnvWorker marks a process as a spawned shard worker. A Pool sets it
// to the child's registered name (proc-<slot>) and hands the child its
// end of a socketpair as fd 3; MaybeServeWorker checks it at main()
// entry so any flowery binary can double as its own worker.
const EnvWorker = "FLOWERY_SHARD_WORKER"

// envWorkerHeartbeat carries the spawning pool's heartbeat to the child,
// which pings at that interval.
const envWorkerHeartbeat = "FLOWERY_SHARD_WORKER_HEARTBEAT"

// workerFD is the descriptor a spawned child finds its connection on
// (exec.Cmd.ExtraFiles[0]).
const workerFD = 3

// EnvWorkerConnect turns the process into a socket shard worker dialing
// the given coordinator address (the env-var twin of
// `flowery shard-worker -connect`). Chaos tests use it to spawn a real
// worker process they can SIGKILL mid-campaign.
const EnvWorkerConnect = "FLOWERY_SHARD_WORKER_CONNECT"

// EnvChaosExitAfter is a fault-injection hook for the fault-injection
// fleet itself: when set to n > 0, the worker process exits abruptly
// (no quit handshake, no conn teardown — SIGKILL semantics) right after
// sending its n-th result. The chaos CI smoke uses it to kill one
// worker mid-campaign deterministically and assert the coordinator
// re-deals its shards without perturbing the merged statistics. It is
// read where a worker process starts (MaybeServeWorker, RunWorker), so
// in-process test workers serving a connection directly ignore it.
const EnvChaosExitAfter = "FLOWERY_SHARD_CHAOS_EXIT_AFTER"

// MaybeServeWorker turns the current process into a shard worker when
// EnvWorker (a child spawned by a Pool, serving its inherited
// connection) or EnvWorkerConnect (dialing a coordinator) is set, and
// exits when the coordinator is done with it; otherwise it returns
// immediately. Call it first thing in main() (and in TestMain for
// packages whose test binary doubles as the spawned worker).
func MaybeServeWorker() {
	if addr := os.Getenv(EnvWorkerConnect); addr != "" {
		if err := RunWorker(WorkerOpts{Connect: addr}); err != nil {
			fmt.Fprintln(os.Stderr, "flowery shard worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	name := os.Getenv(EnvWorker)
	if name == "" {
		return
	}
	heartbeat, _ := time.ParseDuration(os.Getenv(envWorkerHeartbeat))
	f := os.NewFile(workerFD, "shard-conn")
	conn, err := net.FileConn(f)
	f.Close()
	if err == nil {
		_, err = serveWorkerConn(conn, WorkerOpts{Name: name, Heartbeat: heartbeat}.withDefaults())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowery shard worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// WorkerOpts configures a shard worker process: a spawned child, or a
// socket worker (`flowery shard-worker -connect/-listen`).
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

	// exitAfter is EnvChaosExitAfter, read by withDefaults.
	exitAfter int
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
	o.exitAfter, _ = strconv.Atoi(os.Getenv(EnvChaosExitAfter))
	return o
}

// RunWorker runs a socket shard worker until its coordinator is done
// with it: in listen mode it serves connections until the process is
// killed; in connect mode it dials, serves, and re-registers after each
// job, exiting cleanly once it has been handed at least one job and the
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
		if _, err := serveWorkerConn(conn, o); err != nil {
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
			var gotJob bool
			gotJob, err = serveWorkerConn(conn, o)
			if gotJob {
				// Handed a job: this worker took part in a campaign,
				// whether the connection ended in a quit or the
				// coordinator let go of it because the job completed
				// elsewhere while it set up or ran a straggler range.
				served++
			}
			if err == nil {
				continue // re-register for the next job
			}
			if errors.Is(err, errRejected) {
				if served > 0 {
					// "job complete" after a served campaign: normal exit.
					return nil
				}
				return err
			}
		}
		lastErr = err
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

// serveWorkerConn speaks the worker half on one connection — a socket
// or a spawned child's socketpair end: hello first, then serveFrames,
// with a heartbeat goroutine sharing the frame sink so the coordinator
// sees liveness while RunRange executes. A failed ping write closes the
// connection, which unblocks the serve loop's read — that is how a
// worker parked against a dead coordinator notices. gotJob reports
// whether the coordinator handed this connection a job.
func serveWorkerConn(conn net.Conn, o WorkerOpts) (gotJob bool, err error) {
	defer conn.Close()
	sink := newFrameSink(&deadlineWriter{
		conn: conn,
		d:    o.Heartbeat * time.Duration(DefaultHeartbeatMiss+1),
	})
	if err := sink.send(msgHello, encodeHello(hello{Proto: ProtoVersion, Name: o.Name})); err != nil {
		return false, fmt.Errorf("shard: sending hello: %w", err)
	}
	stop := make(chan struct{})
	var pingWG sync.WaitGroup
	pingWG.Add(1)
	go func() {
		defer pingWG.Done()
		t := time.NewTicker(o.Heartbeat)
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
	gotJob, err = serveFrames(bufio.NewReaderSize(conn, 1<<16), sink, o.exitAfter)
	close(stop)
	pingWG.Wait()
	return gotJob, err
}

// serveFrames runs the worker half of the protocol after the hello:
// read one job, build the engines, then execute shard assignments until
// msgQuit or EOF. Errors while executing a shard are reported to the
// coordinator as msgError frames (the coordinator re-deals the shard
// elsewhere); protocol-level errors tear the worker down. exitAfter > 0
// is the EnvChaosExitAfter hook.
func serveFrames(br *bufio.Reader, sink *frameSink, exitAfter int) (gotJob bool, err error) {
	typ, payload, err := readFrameSkipPing(br)
	if err != nil {
		return false, fmt.Errorf("reading job: %w", err)
	}
	if typ == msgError {
		// Coordinators refuse a worker with one line (stale protocol,
		// duplicate name, job already complete) instead of a job.
		return false, fmt.Errorf("%w: %s", errRejected, payload)
	}
	if typ != msgJob {
		return false, fmt.Errorf("expected job frame, got type %d", typ)
	}
	hash := jobHash(payload)

	runner, err := buildRunner(payload)
	if err != nil {
		// Report the build failure instead of dying silently: the
		// coordinator surfaces it with context.
		sink.send(msgError, []byte(err.Error()))
		return true, err
	}
	defer runner.Close()

	if err := sink.send(msgReady, hash[:]); err != nil {
		return true, fmt.Errorf("sending ready: %w", err)
	}

	setupDone := false
	results := 0
	lastCPU := cpuNanos()
	for {
		typ, payload, err := readFrameSkipPing(br)
		if err == io.EOF {
			return true, nil // coordinator hung up; treat as quit
		}
		if err != nil {
			return true, fmt.Errorf("reading assignment: %w", err)
		}
		switch typ {
		case msgQuit:
			return true, nil
		case msgShard:
			rg, err := decodeShard(payload)
			if err != nil {
				return true, err
			}
			res, err := runner.RunRange(rg)
			if err != nil {
				if werr := sink.send(msgError, []byte(err.Error())); werr != nil {
					return true, werr
				}
				continue
			}
			if !setupDone {
				res.SetupInstrs = runner.SetupInstrs()
				setupDone = true
			}
			cpu := cpuNanos()
			frame, err := marshalResult(res, cpu-lastCPU)
			lastCPU = cpu
			if err != nil {
				return true, err
			}
			if err := sink.send(msgResult, frame); err != nil {
				return true, err
			}
			results++
			if exitAfter > 0 && results >= exitAfter {
				os.Exit(3) // scripted abrupt death; see EnvChaosExitAfter
			}
		default:
			return true, fmt.Errorf("unexpected frame type %d", typ)
		}
	}
}

// buildRunner reconstructs the coordinator's engines from the job: the
// same parse → (lower →) assign-addresses derivation pipeline.Compiled
// performs on its side of the fence, so run outcomes match bit for bit
// (ir print/parse round-trip stability is what makes the text form a
// faithful transport; MergeShards' golden consensus check guards it at
// every merge).
func buildRunner(payload []byte) (*campaign.ShardRunner, error) {
	var job Job
	if err := unmarshalJob(payload, &job); err != nil {
		return nil, err
	}
	m, err := ir.Parse(job.Module)
	if err != nil {
		return nil, fmt.Errorf("shard: parsing job module: %w", err)
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("shard: job module invalid: %w", err)
	}
	var factory campaign.EngineFactory
	switch job.Layer {
	case LayerIR:
		m.AssignAddresses()
		factory = func() (sim.Engine, error) { return interp.New(m), nil }
	case LayerAsm:
		prog, err := backend.LowerCfg(m, backend.Config{GPRScratch: job.GPRScratch})
		if err != nil {
			return nil, fmt.Errorf("shard: lowering job module: %w", err)
		}
		m.AssignAddresses()
		factory = func() (sim.Engine, error) { return machine.New(m, prog) }
	default:
		return nil, fmt.Errorf("shard: unknown layer %q", job.Layer)
	}
	return campaign.NewShardRunner(factory, job.Spec())
}

// marshalResult renders a ShardResult as a msgResult payload: JSON
// header plus the shard's records as a reclog stream.
func marshalResult(res campaign.ShardResult, cpu int64) ([]byte, error) {
	var stream bytes.Buffer
	rw := reclog.NewWriter(&stream)
	for _, rec := range res.Records {
		if err := rw.Write(reclog.Record{
			Run:     int64(rec.Run),
			Outcome: uint8(rec.Outcome),
			Origin:  uint8(rec.Origin),
			Target:  rec.Target,
			Bit:     rec.Bit,
		}); err != nil {
			return nil, fmt.Errorf("shard: encoding record for run %d: %w", rec.Run, err)
		}
	}
	if err := rw.Close(); err != nil {
		return nil, err
	}
	hdr := resultHeader{
		Lo:               res.Range.Lo,
		Hi:               res.Range.Hi,
		Counts:           res.Counts[:],
		SDCByOrigin:      res.SDCByOrigin[:],
		GoldenDyn:        res.GoldenDyn,
		GoldenInjectable: res.GoldenInjectable,
		SimulatedInstrs:  res.SimulatedInstrs,
		SavedInstrs:      res.SavedInstrs,
		SetupInstrs:      res.SetupInstrs,
		CPUNanos:         cpu,
	}
	return encodeResult(hdr, stream.Bytes())
}

// unmarshalResult is marshalResult's inverse, rebuilding the
// campaign.ShardResult the coordinator merges.
func unmarshalResult(payload []byte) (campaign.ShardResult, int64, int, error) {
	hdr, stream, err := decodeResult(payload)
	if err != nil {
		return campaign.ShardResult{}, 0, 0, err
	}
	res := campaign.ShardResult{
		Range:            campaign.ShardRange{Lo: hdr.Lo, Hi: hdr.Hi},
		GoldenDyn:        hdr.GoldenDyn,
		GoldenInjectable: hdr.GoldenInjectable,
		SimulatedInstrs:  hdr.SimulatedInstrs,
		SavedInstrs:      hdr.SavedInstrs,
		SetupInstrs:      hdr.SetupInstrs,
	}
	if len(hdr.Counts) != len(res.Counts) || len(hdr.SDCByOrigin) != len(res.SDCByOrigin) {
		return campaign.ShardResult{}, 0, 0, fmt.Errorf("shard: result header shape mismatch (worker version skew?)")
	}
	copy(res.Counts[:], hdr.Counts)
	copy(res.SDCByOrigin[:], hdr.SDCByOrigin)

	recs, err := reclog.ReadAll(bytes.NewReader(stream))
	if err != nil {
		return campaign.ShardResult{}, 0, 0, fmt.Errorf("shard: result record stream: %w", err)
	}
	if len(recs) != hdr.Hi-hdr.Lo {
		return campaign.ShardResult{}, 0, 0, fmt.Errorf("shard: result carries %d records for %d runs", len(recs), hdr.Hi-hdr.Lo)
	}
	res.Records = make([]campaign.Record, len(recs))
	for i, rec := range recs {
		if rec.Run != int64(hdr.Lo+i) {
			return campaign.ShardResult{}, 0, 0, fmt.Errorf("shard: record %d has run %d, want %d", i, rec.Run, hdr.Lo+i)
		}
		if int(rec.Outcome) >= int(campaign.NumOutcomes) || int(rec.Origin) >= asm.NumOrigins {
			return campaign.ShardResult{}, 0, 0, fmt.Errorf("shard: record %d has out-of-range outcome/origin (%d/%d)", i, rec.Outcome, rec.Origin)
		}
		res.Records[i] = campaign.Record{
			Run:     int(rec.Run),
			Outcome: campaign.Outcome(rec.Outcome),
			Origin:  asm.Origin(rec.Origin),
			Target:  rec.Target,
			Bit:     rec.Bit,
		}
	}
	return res, hdr.CPUNanos, len(payload), nil
}

// cpuNanos returns this process's consumed CPU time (user + system).
// It feeds the coordinator's partition-balance accounting only; it
// never influences outcomes.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvNanos(ru.Utime) + tvNanos(ru.Stime)
}

func tvNanos(tv syscall.Timeval) int64 {
	return int64(tv.Sec)*1e9 + int64(tv.Usec)*1e3
}
