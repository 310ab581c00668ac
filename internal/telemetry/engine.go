package telemetry

import "time"

// EngineMetrics bundles the per-engine metric handles so an engine's
// run-boundary flush is a handful of atomic adds — no map lookups, no
// name formatting. A nil *EngineMetrics is the disabled sink; both
// fault-injection engines hold one and rebind it only when the
// registry in sim.Options changes.
type EngineMetrics struct {
	runs   [2]*Counter // indexed by core: 0 = reference loop, 1 = fast core
	instrs [2]*Counter
	dur    [2]*Histogram
	rate   [2]*Gauge
	slow   *Counter
	conv   *Counter
}

// NewEngineMetrics resolves an engine's metric handles in r (nil r →
// nil, the no-op sink). engine labels every metric: "ir" for the
// interpreter, "asm" for the machine.
func NewEngineMetrics(r *Registry, engine string) *EngineMetrics {
	if r == nil {
		return nil
	}
	m := &EngineMetrics{
		slow: r.Counter(`engine_slow_fallback_total{engine="` + engine + `"}`),
		conv: r.Counter(`engine_converged_total{engine="` + engine + `"}`),
	}
	for i, core := range [...]string{"ref", "fast"} {
		l := `{engine="` + engine + `",core="` + core + `"}`
		m.runs[i] = r.Counter("engine_runs_total" + l)
		m.instrs[i] = r.Counter("engine_instrs_total" + l)
		m.dur[i] = r.Histogram("engine_run_seconds" + l)
		m.rate[i] = r.Gauge("engine_instrs_per_sec" + l)
	}
	return m
}

// FlushRun records one completed engine run: which core served it, how
// many instructions it executed, how many of those fell back to the
// generic slow step, whether it stopped early on reconverging with the
// golden run, and its wall time. The instrs/sec gauge is recomputed from
// the cumulative counters, so on a registry shared by campaign workers
// it reads as fleet-wide core throughput.
func (m *EngineMetrics) FlushRun(fast bool, instrs, slowSteps int64, converged bool, d time.Duration) {
	if m == nil {
		return
	}
	i := 0
	if fast {
		i = 1
	}
	m.runs[i].Inc()
	m.instrs[i].Add(instrs)
	m.dur[i].Observe(d)
	if slowSteps > 0 {
		m.slow.Add(slowSteps)
	}
	if converged {
		m.conv.Inc()
	}
	if s := m.dur[i].Sum().Seconds(); s > 0 {
		m.rate[i].Set(float64(m.instrs[i].Value()) / s)
	}
}
