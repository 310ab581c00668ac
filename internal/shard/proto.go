// Package shard farms a fault-injection campaign's shards out to worker
// processes. The coordinator (Pool, a campaign.ShardExecutor) takes
// workers from four sources — children running this same binary (see
// MaybeServeWorker), dialed and accepted TCP workers, and a daemon's
// hub — ships each one the campaign job — pristine module IR text plus
// the outcome-relevant spec knobs — over one length-framed protocol,
// then deals shard ranges to whichever worker is idle,
// re-dealing straggler shards to idle workers near the end
// (work stealing; shards are deterministic, so the first completed
// result wins and duplicates are dropped). Per-run results travel back
// as a compact internal/reclog stream, and campaign.MergeShards
// reassembles exact Stats (DESIGN.md §13).
//
// The wire protocol is deliberately minimal: every message is one frame
//
//	[type: 1 byte][payload length: uvarint][payload]
//
// and, after the worker's opening hello, the conversation is strictly
// coordinator-driven —
//
//	coordinator → worker:  job, then any number of shard assignments,
//	                       then quit
//	worker → coordinator:  ready (echoing the job hash), then exactly
//	                       one result or error per assignment
//
// so neither side ever needs to select between streams. Workers never
// touch campaign telemetry: counters for a sharded campaign are flushed
// once, by the coordinator, in campaign.RunSharded.
package shard

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"flowery/internal/campaign"
)

// Message types. The payload formats:
//
//	msgJob    JSON-encoded Job
//	msgReady  the 32-byte SHA-256 of the job payload, echoed back
//	msgShard  uvarint lo, uvarint hi (run range [lo, hi))
//	msgResult uvarint header length, JSON resultHeader, reclog stream
//	msgError  UTF-8 error text
//	msgQuit   empty
//	msgHello  JSON-encoded hello (proto + name), the worker's first frame
//	msgPing   empty application-level heartbeat (either side may send
//	          one at any frame boundary, and every reader skips them)
const (
	msgJob byte = iota + 1
	msgReady
	msgShard
	msgResult
	msgError
	msgQuit
	msgHello
	msgPing
)

// ProtoVersion is the protocol's handshake version. A worker
// whose hello carries a different version is rejected during the
// handshake with a one-line error instead of failing later with a
// frame-shape mismatch deep inside a campaign.
const ProtoVersion = 1

// maxFrame bounds a single frame's payload. Large enough for any
// module text or shard result this repo produces, small enough that a
// corrupted length prefix cannot trigger a giant allocation.
const maxFrame = 1 << 28

// allocChunk bounds how much readFrame allocates ahead of the bytes
// actually arriving, so a hostile or corrupt peer declaring a huge
// frame costs at most one chunk, not maxFrame, before the stream runs
// dry.
const allocChunk = 1 << 20

// Job is everything a worker needs to reproduce the coordinator's
// engines and execute shards of the campaign: the pristine
// (pre-lowering) module text plus the outcome-relevant campaign knobs.
// Scheduling-only and observation-only spec fields (Metrics, TraceSpan,
// Records) deliberately do not cross the process boundary.
type Job struct {
	// Module is the pristine module in IR text form (ir.Module.String).
	// The worker re-parses and re-derives engines exactly the way
	// pipeline.Compiled does, so outcomes are bit-identical; the
	// golden-run consensus check in campaign.MergeShards verifies that
	// on every merge.
	Module string
	// Layer is the execution layer: "ir" (interp on the module) or
	// "asm" (lower with GPRScratch, then machine).
	Layer string
	// GPRScratch is the backend register budget (asm layer only).
	GPRScratch int

	// Campaign spec, outcome-relevant subset plus in-process
	// parallelism.
	Runs      int
	Seed      int64
	MaxSteps  int64
	Workers   int
	Snapshots int
	Reference bool
}

// Spec renders the job's campaign spec (no telemetry, no record sink —
// records ship via the result stream).
func (j Job) Spec() campaign.Spec {
	return campaign.Spec{
		Runs:      j.Runs,
		Seed:      j.Seed,
		MaxSteps:  j.MaxSteps,
		Workers:   j.Workers,
		Snapshots: j.Snapshots,
		Reference: j.Reference,
	}
}

// LayerIR and LayerAsm are the Job.Layer values.
const (
	LayerIR  = "ir"
	LayerAsm = "asm"
)

// resultHeader is the JSON half of a msgResult payload; the per-run
// records follow as a reclog stream.
type resultHeader struct {
	Lo, Hi           int
	Counts           []int
	SDCByOrigin      []int
	GoldenDyn        int64
	GoldenInjectable int64
	SimulatedInstrs  int64
	SavedInstrs      int64
	SetupInstrs      int64
	// CPUNanos is the worker process's CPU time (user+system) consumed
	// since its previous result (the first result includes engine
	// construction, the golden run, and snapshot builds). Coordinators
	// use it for partition-balance accounting; it never affects
	// outcomes.
	CPUNanos int64
}

func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = typ
	n := binary.PutUvarint(hdr[1:], uint64(len(payload)))
	if _, err := w.Write(hdr[:1+n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.ByteReader) (typ byte, payload []byte, err error) {
	typ, err = r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, fmt.Errorf("shard: frame length after type %d: %w", typ, err)
	}
	if size > maxFrame {
		return 0, nil, fmt.Errorf("shard: frame of %d bytes exceeds limit", size)
	}
	br, ok := r.(io.Reader)
	if !ok {
		return 0, nil, fmt.Errorf("shard: frame source is not an io.Reader")
	}
	// Grow the buffer chunk by chunk as bytes actually arrive: a length
	// prefix the peer never backs with data cannot provoke a maxFrame
	// allocation.
	payload = make([]byte, 0, min64(size, allocChunk))
	for uint64(len(payload)) < size {
		chunk := min64(size-uint64(len(payload)), allocChunk)
		off := len(payload)
		payload = append(payload, make([]byte, chunk)...)
		if _, err := io.ReadFull(br, payload[off:]); err != nil {
			return 0, nil, fmt.Errorf("shard: frame body (%d of %d bytes): %w", off, size, err)
		}
	}
	return typ, payload, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// readFrameSkipPing reads the next non-heartbeat frame. Heartbeats may
// arrive at any frame boundary on the socket transport; every protocol
// reader treats them as pure liveness and moves on.
func readFrameSkipPing(r io.ByteReader) (byte, []byte, error) {
	for {
		typ, payload, err := readFrame(r)
		if err != nil || typ != msgPing {
			return typ, payload, err
		}
	}
}

func unmarshalJob(payload []byte, job *Job) error {
	if err := json.Unmarshal(payload, job); err != nil {
		return fmt.Errorf("shard: decoding job: %w", err)
	}
	return nil
}

// hello is the msgHello payload a socket worker sends as its first
// frame, regardless of which side dialed: the protocol version it
// speaks and the name it registers under (duplicate names are rejected
// so a fleet misconfiguration — two hosts launched with the same
// identity — surfaces at connect time).
type hello struct {
	Proto int
	Name  string
}

func encodeHello(h hello) []byte {
	b, err := json.Marshal(h)
	if err != nil {
		panic("shard: encoding hello: " + err.Error()) // two plain fields; cannot fail
	}
	return b
}

func decodeHello(payload []byte) (hello, error) {
	var h hello
	if err := json.Unmarshal(payload, &h); err != nil {
		return hello{}, fmt.Errorf("shard: decoding hello: %w", err)
	}
	if h.Name == "" {
		return hello{}, fmt.Errorf("shard: hello carries no worker name")
	}
	return h, nil
}

// jobHash is the content hash both sides derive from the job payload;
// the worker echoes it in msgReady so the coordinator knows the worker
// parsed the same bytes it sent (guards against version skew between
// the coordinator binary and whatever Command launched).
func jobHash(payload []byte) [sha256.Size]byte {
	return sha256.Sum256(payload)
}

func encodeShard(rg campaign.ShardRange) []byte {
	var buf [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(rg.Lo))
	n += binary.PutUvarint(buf[n:], uint64(rg.Hi))
	return buf[:n]
}

func decodeShard(payload []byte) (campaign.ShardRange, error) {
	lo, n := binary.Uvarint(payload)
	if n <= 0 {
		return campaign.ShardRange{}, fmt.Errorf("shard: bad shard frame")
	}
	hi, m := binary.Uvarint(payload[n:])
	if m <= 0 || n+m != len(payload) {
		return campaign.ShardRange{}, fmt.Errorf("shard: bad shard frame")
	}
	return campaign.ShardRange{Lo: int(lo), Hi: int(hi)}, nil
}

// frameSink serializes whole frames onto one writer. A worker shares
// its sink between the protocol loop and the heartbeat goroutine, and
// the mutex spans write+flush so a ping can never land inside another
// frame's bytes.
type frameSink struct {
	mu sync.Mutex
	bw *bufio.Writer
}

func newFrameSink(w io.Writer) *frameSink {
	return &frameSink{bw: bufio.NewWriterSize(w, 1<<16)}
}

// send writes one frame and flushes it.
func (s *frameSink) send(typ byte, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := writeFrame(s.bw, typ, payload); err != nil {
		return err
	}
	return s.bw.Flush()
}

func encodeResult(hdr resultHeader, reclogStream []byte) ([]byte, error) {
	hj, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(hj)))
	out := make([]byte, 0, n+len(hj)+len(reclogStream))
	out = append(out, lenBuf[:n]...)
	out = append(out, hj...)
	out = append(out, reclogStream...)
	return out, nil
}

func decodeResult(payload []byte) (resultHeader, []byte, error) {
	size, n := binary.Uvarint(payload)
	// The explicit maxFrame comparison keeps a 64-bit header length from
	// wrapping negative through the int cast and sailing past the bounds
	// check into a slice-bounds panic (found by FuzzShardFrame).
	if n <= 0 || size > maxFrame || int(size) > len(payload)-n {
		return resultHeader{}, nil, fmt.Errorf("shard: bad result frame")
	}
	var hdr resultHeader
	if err := json.Unmarshal(payload[n:n+int(size)], &hdr); err != nil {
		return resultHeader{}, nil, fmt.Errorf("shard: result header: %w", err)
	}
	return hdr, payload[n+int(size):], nil
}
