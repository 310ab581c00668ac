package main

import (
	"testing"

	"flowery/internal/campaign"
	"flowery/internal/sim"
	"flowery/internal/store"
)

// Fake engines with each combination of the optional capabilities.
type plainEngine struct{}

func (plainEngine) Run(f sim.Fault, _ sim.Options) sim.Result {
	return sim.Result{Injected: f.Active(), DynInstrs: 10, InjectableInstrs: 8, Output: []byte("ok")}
}

type snapshotting struct{ plainEngine }

func (snapshotting) BuildSnapshots(int64, sim.Options) sim.Result { return sim.Result{DynInstrs: 10} }
func (e snapshotting) RunFrom(f sim.Fault, o sim.Options) (sim.Result, int64) {
	return e.Run(f, o), 4
}
func (snapshotting) DropSnapshots() {}

type tracing struct{ plainEngine }

func (tracing) RunTraced(sim.Options, sim.Tracer) sim.Result { return sim.Result{DynInstrs: 10} }

type both struct{ snapshotting }

func (both) RunTraced(sim.Options, sim.Tracer) sim.Result { return sim.Result{DynInstrs: 10} }

func TestWrapEngineKeepsExactlyTheCapabilities(t *testing.T) {
	c := &campaignTrace{rec: newRecorder(), engine: "machine"}
	for _, e := range []sim.Engine{plainEngine{}, snapshotting{}, tracing{}, both{}} {
		w := wrapEngine(e, c)
		_, innerSnap := e.(sim.SnapshotEngine)
		_, innerTrace := e.(sim.TraceEngine)
		_, snap := w.(sim.SnapshotEngine)
		_, trace := w.(sim.TraceEngine)
		if snap != innerSnap || trace != innerTrace {
			t.Errorf("%T: wrapper snapshot=%t trace=%t, engine snapshot=%t trace=%t", e, snap, trace, innerSnap, innerTrace)
		}
	}
}

func TestWrappedEngineRecordsPostFaultWork(t *testing.T) {
	rec := newRecorder()
	c := &campaignTrace{rec: rec, engine: "machine", parent: 7}
	w := wrapEngine(both{}, c).(sim.SnapshotEngine)
	w.Run(sim.Fault{}, sim.Options{})
	res, skipped := w.RunFrom(sim.Fault{TargetIndex: 3, Bit: 1}, sim.Options{})
	if skipped != 4 || !res.Injected {
		t.Fatalf("wrapper changed the result: %+v skipped %d", res, skipped)
	}
	spans := rec.all()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	g, f := spans[0], spans[1]
	if !g.Golden || g.Name != "machine.Run" || g.Parent != 7 {
		t.Errorf("golden span %+v", g)
	}
	// 8 injectable instructions, fault at the 3rd: 5 executed after it;
	// 10 dynamic instructions, 4 fast-forwarded: 6 executed.
	if f.Name != "machine.RunFrom" || f.PostFault != 5 || f.Instrs != 6 || f.Skipped != 4 || f.Outcome != "benign" {
		t.Errorf("fault span %+v", f)
	}
}

func TestTracedStorePassesThrough(t *testing.T) {
	rec := newRecorder()
	var s store.Store = tracedStore{inner: store.NewMemory(nil), rec: rec}
	if err := s.Put("k", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if b, ok, err := s.Get("k"); err != nil || !ok || string(b) != "blob" {
		t.Fatalf("Get = %q %t %v", b, ok, err)
	}
	if _, ok, _ := s.Get("absent"); ok {
		t.Fatal("Get of an absent key hit")
	}
	var outcomes []string
	for _, sp := range rec.all() {
		outcomes = append(outcomes, sp.Name+":"+sp.Outcome)
	}
	if got := len(outcomes); got != 3 || outcomes[1] != "store.Get:hit" || outcomes[2] != "store.Get:miss" {
		t.Errorf("spans %v", outcomes)
	}
}

func TestClassifyMatchesCampaign(t *testing.T) {
	c := &campaignTrace{}
	c.setGolden(sim.Result{Output: []byte("golden")})
	cases := []struct {
		res  sim.Result
		want campaign.Outcome
	}{
		{sim.Result{Status: sim.StatusDetected}, campaign.OutcomeDetected},
		{sim.Result{Status: sim.StatusTrap}, campaign.OutcomeDUE},
		{sim.Result{Injected: true, Output: []byte("golden")}, campaign.OutcomeBenign},
		{sim.Result{Injected: true, Output: []byte("corrupt")}, campaign.OutcomeSDC},
		{sim.Result{Injected: false, Output: []byte("corrupt")}, campaign.OutcomeBenign},
	}
	for _, tc := range cases {
		if got := c.classify(tc.res); got != tc.want.String() {
			t.Errorf("%+v classified %s, want %s", tc.res, got, tc.want)
		}
	}
}
