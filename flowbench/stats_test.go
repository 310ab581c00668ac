package main

import (
	"math"
	"testing"
	"time"

	"flowery/internal/campaign"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		wantPct float64
		ok      bool
	}{
		{19, 100, false}, // the median of 19 has only 9 beyond it
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		pct, v, ok := tailPercentile(seq(c.n))
		if pct != c.wantPct || ok != c.ok {
			t.Errorf("n=%d: got p%g ok=%t, want p%g ok=%t", c.n, pct, ok, c.wantPct, c.ok)
			continue
		}
		// Samples are 1..n, so the value is its own rank.
		if beyond := c.n - int(v); ok && beyond < minBeyond {
			t.Errorf("n=%d: p%g = %g leaves %d samples beyond", c.n, pct, v, beyond)
		}
	}
	if _, _, ok := tailPercentile(nil); ok {
		t.Error("tail of no samples reported ok")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {20, 1}, {21, 2}, {50, 3}, {100, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestEffectiveRunsOfFullCampaignIsRuns(t *testing.T) {
	for _, c := range []struct{ runs, sdc int }{{2000, 0}, {2000, 1}, {2000, 137}, {500, 250}, {3000, 2999}} {
		st := campaign.Stats{Runs: c.runs}
		st.Counts[campaign.OutcomeSDC] = c.sdc
		st.Counts[campaign.OutcomeBenign] = c.runs - c.sdc
		p, lo, hi := st.SDCRateCI()
		neff, ok := effectiveRuns(st.Runs, p, lo, hi)
		if !ok || math.Abs(neff-float64(c.runs)) > 1e-6*float64(c.runs) {
			t.Errorf("runs=%d sdc=%d: n_eff = %g (ok=%t), want %d", c.runs, c.sdc, neff, ok, c.runs)
		}
	}
}

func TestEffectiveRunsScalesWithInverseSquareHalfWidth(t *testing.T) {
	const runs, p = 2000, 0.05
	wide, ok1 := effectiveRuns(runs, p, p-0.02, p+0.02)
	narrow, ok2 := effectiveRuns(runs, p, p-0.01, p+0.01)
	if !ok1 || !ok2 || math.Abs(narrow/wide-4) > 1e-9 {
		t.Errorf("halving the half-width gave %g → %g, a factor of %g; want 4", wide, narrow, narrow/wide)
	}
	if _, ok := effectiveRuns(runs, p, p, p); ok {
		t.Error("a zero-width interval was scored")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{ms(0), ms(100)}
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"none", nil, ms(100)},
		{"disjoint", []interval{{ms(10), ms(20)}, {ms(50), ms(60)}}, ms(80)},
		{"overlapping", []interval{{ms(10), ms(40)}, {ms(30), ms(60)}, {ms(35), ms(45)}}, ms(50)},
		{"unsorted and nested", []interval{{ms(70), ms(90)}, {ms(10), ms(80)}, {ms(20), ms(30)}}, ms(20)},
		{"clipped to the parent", []interval{{ms(-10), ms(10)}, {ms(95), ms(120)}}, ms(85)},
		{"touching", []interval{{ms(0), ms(50)}, {ms(50), ms(100)}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLog2Histogram(t *testing.T) {
	got := log2Histogram([]int64{0, 0, 1, 2, 3, 4, 1000})
	if want := "0:2 <2^1:1 <2^2:2 <2^3:1 <2^10:1"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestDiffOutcomesIgnoresPerfFields(t *testing.T) {
	a := campaign.Stats{Runs: 10, GoldenDyn: 5, SimulatedInstrs: 1, Elapsed: 3}
	b := campaign.Stats{Runs: 10, GoldenDyn: 7, SimulatedInstrs: 2, SavedInstrs: 4}
	if got, want := diffOutcomes(a, b), "GoldenDyn 5≠7"; got != want {
		t.Errorf("diff %q, want %q", got, want)
	}
	b.GoldenDyn = 5
	if got := diffOutcomes(a, b); got != "" {
		t.Errorf("perf-only difference reported: %q", got)
	}
}
