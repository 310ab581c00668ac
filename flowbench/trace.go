package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"flowery/internal/campaign"
	"flowery/internal/sim"
	"flowery/internal/store"
)

// span is one timed call the benchmark made into a layer of the
// program. Spans are kept in memory and written out once, after the
// traced run.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Engine calls: instructions executed and fast-forwarded over, and
	// for a fault that fired its outcome and the injectable
	// instructions executed after it.
	Instrs    int64  `json:"instrs,omitempty"`
	Skipped   int64  `json:"skipped,omitempty"`
	Golden    bool   `json:"golden,omitempty"`
	Injected  bool   `json:"injected,omitempty"`
	PostFault int64  `json:"post_fault,omitempty"`
	Outcome   string `json:"outcome,omitempty"`
	// Store calls: blob size, and "hit"/"miss" in Outcome for gets.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// recorder collects spans. A nil recorder records nothing, so set-up
// code can be shared by the traced and untraced runs.
type recorder struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span; finish it with end. The returned span's ID can
// parent further spans before it ends.
func (r *recorder) start(name string, parent int64) span {
	if r == nil {
		return span{}
	}
	return span{ID: r.next.Add(1), Parent: parent, Name: name, Start: time.Since(r.t0)}
}

func (r *recorder) end(s span) {
	if r == nil {
		return
	}
	s.End = time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// all returns the finished spans.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps every span as one JSON document.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.all())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// campaignTrace is the shared state of the engines of one traced
// campaign call: the span they report under and the golden output
// their fault runs are classified against.
type campaignTrace struct {
	rec    *recorder
	parent int64
	engine string // "interp" or "machine"

	mu        sync.Mutex
	goldenOut []byte
	haveGold  bool
}

// factory wraps every engine f builds.
func (c *campaignTrace) factory(f campaign.EngineFactory) campaign.EngineFactory {
	return func() (sim.Engine, error) {
		e, err := f()
		if err != nil {
			return nil, err
		}
		return wrapEngine(e, c), nil
	}
}

func (c *campaignTrace) setGolden(res sim.Result) {
	if res.Status != sim.StatusOK {
		return
	}
	c.mu.Lock()
	if !c.haveGold {
		c.goldenOut = append([]byte(nil), res.Output...)
		c.haveGold = true
	}
	c.mu.Unlock()
}

// classify names a fault run's outcome by the rule package campaign
// applies: a checker firing is detected, a trap is a DUE, and a
// completed run is an SDC only when the fault fired and the output
// differs from the golden output.
func (c *campaignTrace) classify(res sim.Result) string {
	switch res.Status {
	case sim.StatusDetected:
		return campaign.OutcomeDetected.String()
	case sim.StatusTrap:
		return campaign.OutcomeDUE.String()
	}
	c.mu.Lock()
	golden := c.goldenOut
	c.mu.Unlock()
	if res.Injected && !bytes.Equal(res.Output, golden) {
		return campaign.OutcomeSDC.String()
	}
	return campaign.OutcomeBenign.String()
}

// tracedEngine times every call into the engine it wraps. It never
// changes arguments or results.
type tracedEngine struct {
	inner sim.Engine
	c     *campaignTrace
}

// wrapEngine returns a traced engine that implements sim.SnapshotEngine
// and sim.TraceEngine exactly when e does, so campaign.Run keeps
// fast-forwarding and campaign.RunPruned keeps tracing under the
// wrapper.
func wrapEngine(e sim.Engine, c *campaignTrace) sim.Engine {
	base := &tracedEngine{inner: e, c: c}
	se, isSnap := e.(sim.SnapshotEngine)
	te, isTrace := e.(sim.TraceEngine)
	switch {
	case isSnap && isTrace:
		return snapTraceEngine{base, snapOps{base, se}, traceOps{base, te}}
	case isSnap:
		return snapEngine{base, snapOps{base, se}}
	case isTrace:
		return traceEngine{base, traceOps{base, te}}
	}
	return base
}

type snapEngine struct {
	*tracedEngine
	snapOps
}

type traceEngine struct {
	*tracedEngine
	traceOps
}

type snapTraceEngine struct {
	*tracedEngine
	snapOps
	traceOps
}

// record closes an engine span for one call that returned res after
// fast-forwarding over skipped instructions.
func (e *tracedEngine) record(s span, f sim.Fault, res sim.Result, skipped int64) {
	s.Instrs = res.DynInstrs - skipped
	s.Skipped = skipped
	if !f.Active() {
		s.Golden = true
	} else if res.Injected {
		s.Injected = true
		s.PostFault = res.InjectableInstrs - f.TargetIndex
		s.Outcome = e.c.classify(res)
	}
	e.c.rec.end(s)
}

func (e *tracedEngine) Run(f sim.Fault, o sim.Options) sim.Result {
	s := e.c.rec.start(e.c.engine+".Run", e.c.parent)
	res := e.inner.Run(f, o)
	if !f.Active() {
		e.c.setGolden(res)
	}
	e.record(s, f, res, 0)
	return res
}

type snapOps struct {
	e  *tracedEngine
	se sim.SnapshotEngine
}

func (o snapOps) BuildSnapshots(interval int64, opts sim.Options) sim.Result {
	s := o.e.c.rec.start(o.e.c.engine+".BuildSnapshots", o.e.c.parent)
	res := o.se.BuildSnapshots(interval, opts)
	o.e.c.setGolden(res)
	s.Instrs = res.DynInstrs
	o.e.c.rec.end(s)
	return res
}

func (o snapOps) RunFrom(f sim.Fault, opts sim.Options) (sim.Result, int64) {
	s := o.e.c.rec.start(o.e.c.engine+".RunFrom", o.e.c.parent)
	res, skipped := o.se.RunFrom(f, opts)
	o.e.record(s, f, res, skipped)
	return res, skipped
}

func (o snapOps) DropSnapshots() { o.se.DropSnapshots() }

type traceOps struct {
	e  *tracedEngine
	te sim.TraceEngine
}

func (o traceOps) RunTraced(opts sim.Options, t sim.Tracer) sim.Result {
	s := o.e.c.rec.start(o.e.c.engine+".RunTraced", o.e.c.parent)
	res := o.te.RunTraced(opts, t)
	o.e.c.setGolden(res)
	s.Instrs = res.DynInstrs
	o.e.c.rec.end(s)
	return res
}

// tracedStore times every call into the artifact store it wraps.
type tracedStore struct {
	inner store.Store
	rec   *recorder
}

func (t tracedStore) Get(key string) ([]byte, bool, error) {
	s := t.rec.start("store.Get", 0)
	blob, ok, err := t.inner.Get(key)
	s.Bytes = int64(len(blob))
	s.Outcome = "miss"
	if ok {
		s.Outcome = "hit"
	}
	t.rec.end(s)
	return blob, ok, err
}

func (t tracedStore) Put(key string, blob []byte) error {
	s := t.rec.start("store.Put", 0)
	err := t.inner.Put(key, blob)
	s.Bytes = int64(len(blob))
	t.rec.end(s)
	return err
}

func (t tracedStore) Close() error { return t.inner.Close() }
