package shard

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"flowery/internal/telemetry"
)

// Hub is floweryd's worker-registration listener (-shard-listen):
// long-lived socket workers dial in, introduce themselves with a hello,
// and park until a campaign claims them. While parked, a lightweight
// parker goroutine drains the worker's heartbeat pings and evicts
// connections that go silent; the claim handoff is frame-aligned and
// byte-exact — the parker reads the connection one byte at a time with
// no buffering of its own, so the claiming Pool can attach its
// buffered reader without losing bytes in transit. After a campaign
// quits a worker, the worker re-dials the hub and registers afresh.
type Hub struct {
	ln        net.Listener
	heartbeat time.Duration
	miss      int
	reg       *telemetry.Registry

	mu     sync.Mutex
	parked map[string]*parkedWorker
	closed bool
	wg     sync.WaitGroup

	// arrived pulses (buffered, best-effort) when a worker registers,
	// waking any Pool waiting to claim one.
	arrived chan struct{}
}

// HubOpts configures a Hub.
type HubOpts struct {
	// Heartbeat is the parker's read-deadline slice (0 =
	// DefaultHeartbeat); a parked worker silent for HeartbeatMiss
	// consecutive slices is evicted.
	Heartbeat     time.Duration
	HeartbeatMiss int
	// Metrics receives shard_remote_connects_total /
	// shard_remote_disconnects_total /
	// shard_remote_heartbeats_missed_total and the shard_hub_workers
	// gauge.
	Metrics *telemetry.Registry
}

type parkedWorker struct {
	name string
	conn net.Conn

	mu      sync.Mutex
	claimed bool
	dead    bool

	handoff     chan struct{} // closed once the parker stops reading
	handoffOnce sync.Once
}

func (pw *parkedWorker) isClaimed() bool {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.claimed
}

// claimedWorker is a parked worker handed to a Pool: hello
// already validated, no bytes in flight beyond whole ping frames.
type claimedWorker struct {
	name string
	conn net.Conn
}

// NewHub starts a hub on ln. Close stops it and hangs up every parked
// worker.
func NewHub(ln net.Listener, opts HubOpts) *Hub {
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = DefaultHeartbeat
	}
	if opts.HeartbeatMiss <= 0 {
		opts.HeartbeatMiss = DefaultHeartbeatMiss
	}
	h := &Hub{
		ln:        ln,
		heartbeat: opts.Heartbeat,
		miss:      opts.HeartbeatMiss,
		reg:       opts.Metrics,
		parked:    make(map[string]*parkedWorker),
		arrived:   make(chan struct{}, 1),
	}
	h.wg.Add(1)
	go h.acceptLoop()
	return h
}

// Addr is the hub's bound listen address.
func (h *Hub) Addr() net.Addr { return h.ln.Addr() }

// Workers returns how many workers are currently parked.
func (h *Hub) Workers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.parked)
}

// Close stops accepting, hangs up parked workers, and waits for the
// hub's goroutines to exit.
func (h *Hub) Close() {
	h.mu.Lock()
	h.closed = true
	conns := make([]net.Conn, 0, len(h.parked))
	for _, pw := range h.parked {
		conns = append(conns, pw.conn)
	}
	h.mu.Unlock()
	h.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	h.wg.Wait()
}

func (h *Hub) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // closed
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.register(conn)
		}()
	}
}

// register validates a dialing worker's hello and parks it, or refuses
// it with a one-line msgError.
func (h *Hub) register(conn net.Conn) {
	refuse := func(msg string) {
		sink := newFrameSink(&deadlineWriter{conn: conn, d: h.heartbeat * time.Duration(h.miss+1)})
		sink.send(msgError, []byte(msg))
		conn.Close()
	}
	conn.SetReadDeadline(time.Now().Add(h.heartbeat * time.Duration(h.miss+1)))
	typ, payload, err := readFrame(oneByteReader{conn})
	conn.SetReadDeadline(time.Time{})
	if err != nil || typ != msgHello {
		conn.Close()
		return
	}
	hl, err := decodeHello(payload)
	if err != nil {
		refuse(err.Error())
		return
	}
	if hl.Proto != ProtoVersion {
		refuse(fmt.Sprintf("worker speaks protocol %d, hub %d — version skew", hl.Proto, ProtoVersion))
		return
	}
	if msg := h.add(hl.Name, conn); msg != "" {
		refuse(msg)
		return
	}
	h.reg.Counter("shard_remote_connects_total").Inc()
}

// repark returns a claimed worker the claiming campaign did not use to
// the pool, exactly as if it had just registered (its hello stays
// validated). It hangs up when the hub is closing or the name has
// re-registered meanwhile.
func (h *Hub) repark(w claimedWorker) {
	if h.add(w.name, w.conn) != "" {
		w.conn.Close()
	}
}

// add parks a validated worker and starts its parker, or returns the
// reason it cannot.
func (h *Hub) add(name string, conn net.Conn) string {
	pw := &parkedWorker{name: name, conn: conn, handoff: make(chan struct{})}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return "hub shutting down"
	}
	if h.parked[name] != nil {
		h.mu.Unlock()
		return "duplicate worker name " + name
	}
	h.parked[name] = pw
	n := len(h.parked)
	// Count the parker in before Close can observe the hub open and
	// wait: repark runs outside the accept loop's own wg slot.
	h.wg.Add(1)
	h.mu.Unlock()
	h.reg.Gauge("shard_hub_workers").Set(float64(n))
	select {
	case h.arrived <- struct{}{}:
	default:
	}
	go func() {
		defer h.wg.Done()
		h.park(pw)
	}()
	return ""
}

// errClaimed aborts a parker read between frames when the worker has
// been claimed.
var errClaimed = errors.New("shard: worker claimed")

// park drains the worker's heartbeat pings until the worker is claimed
// or goes silent/dead. Only whole ping frames (two bytes: type + zero
// length) are ever consumed, one byte at a time straight off the conn,
// so a claim always observes a frame-aligned stream: a claim landing
// mid-ping waits for the frame's second byte before the handoff.
func (h *Hub) park(pw *parkedWorker) {
	finish := func(dead bool) {
		if dead {
			h.mu.Lock()
			if h.parked[pw.name] == pw {
				delete(h.parked, pw.name)
			}
			n := len(h.parked)
			h.mu.Unlock()
			pw.conn.Close()
			pw.mu.Lock()
			pw.dead = true
			pw.mu.Unlock()
			h.reg.Counter("shard_remote_disconnects_total").Inc()
			h.reg.Gauge("shard_hub_workers").Set(float64(n))
		} else {
			pw.conn.SetReadDeadline(time.Time{})
		}
		pw.handoffOnce.Do(func() { close(pw.handoff) })
	}
	misses := 0
	var buf [1]byte
	readByte := func(midFrame bool) (byte, error) {
		for {
			pw.conn.SetReadDeadline(time.Now().Add(h.heartbeat))
			_, err := pw.conn.Read(buf[:])
			if err == nil {
				misses = 0
				return buf[0], nil
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if !midFrame && pw.isClaimed() {
					return 0, errClaimed
				}
				misses++
				h.reg.Counter("shard_remote_heartbeats_missed_total").Inc()
				if misses >= h.miss {
					return 0, err
				}
				continue
			}
			return 0, err
		}
	}
	for {
		if pw.isClaimed() {
			finish(false)
			return
		}
		typ, err := readByte(false)
		if err == errClaimed {
			finish(false)
			return
		}
		if err != nil || typ != msgPing {
			finish(true) // silent, hung up, or speaking out of turn
			return
		}
		size, err := readByte(true)
		if err != nil || size != 0 {
			finish(true)
			return
		}
	}
}

// take claims any parked worker: it removes it from the pool, stops its
// parker, and waits for the frame-aligned handoff. ok is false when no
// worker is parked.
func (h *Hub) take() (claimedWorker, bool) {
	for {
		h.mu.Lock()
		var pw *parkedWorker
		for name, cand := range h.parked {
			pw = cand
			delete(h.parked, name)
			break
		}
		n := len(h.parked)
		h.mu.Unlock()
		if pw == nil {
			return claimedWorker{}, false
		}
		h.reg.Gauge("shard_hub_workers").Set(float64(n))
		pw.mu.Lock()
		pw.claimed = true
		pw.mu.Unlock()
		// The parker notices within one heartbeat slice (its read
		// deadline) and closes the handoff without consuming another
		// frame.
		<-pw.handoff
		pw.mu.Lock()
		dead := pw.dead
		pw.mu.Unlock()
		if dead {
			continue // died during the handoff; try another
		}
		return claimedWorker{name: pw.name, conn: pw.conn}, true
	}
}

// oneByteReader adapts a conn to the frame reader without buffering:
// whatever readFrame does not consume stays in the kernel, so the
// stream can be handed to a different reader afterwards.
type oneByteReader struct{ c net.Conn }

func (r oneByteReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(r.c, b[:])
	return b[0], err
}

func (r oneByteReader) Read(p []byte) (int, error) { return r.c.Read(p) }
