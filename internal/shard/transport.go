package shard

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// This file holds the connection machinery every worker shares. Local
// child processes, dialed and accepted TCP workers, and hub-parked
// workers all speak the same length-framed protocol over a net.Conn
// (a socketpair end for children), so one coordinator loop (Pool's
// serveConn) and one worker loop (serveWorkerConn) serve them all, with
// the robustness a network peer needs — it can crash, hang, or go
// silent behind a partition. Concretely (DESIGN.md §17):
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
// delays, truncations, SIGKILLs, and dying children at scripted points
// and asserts the merged statistics never change.

// Transport defaults; every one is overridable via PoolOpts /
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

// errJobDone aborts a read once every range of the campaign has a
// result: the connection was awaiting a worker's ready or a straggler's
// duplicate, neither of which can matter any more. The serve loop lets
// the worker go cleanly.
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
	// done, once closed, turns every read into errJobDone. It is checked
	// after each deadline is armed, so a waker that forces the deadline
	// into the past once done closes (Pool's serveConn does) ends a
	// blocked read at once instead of after the slice.
	done   <-chan struct{}
	onMiss func()
}

func (t *timedConn) jobDone() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

func (t *timedConn) Read(p []byte) (int, error) {
	for {
		if t.slice > 0 {
			t.conn.SetReadDeadline(time.Now().Add(t.slice))
		}
		if t.jobDone() {
			return 0, errJobDone
		}
		n, err := t.conn.Read(p)
		if n > 0 {
			t.misses = 0
			return n, nil
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			if t.jobDone() {
				return 0, errJobDone
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
