package main

import (
	"fmt"
	"math/bits"
	"strings"
	"time"

	"flowery/internal/telemetry"
)

// perLayerMetrics lists every per-layer metric with its unit, in the
// order BENCHMARK.json gives them. A traced run reports all of them; a
// layer the workload does not exercise reports 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"machine.instrs_per_s", "1/s"},
	{"interp.instrs_per_s", "1/s"},
	{"machine.busy_s", "s"},
	{"interp.busy_s", "s"},
	{"engine.slow_fallback_frac", "ratio"},
	{"campaign.golden_s", "s"},
	{"campaign.self_s", "s"},
	{"campaign.saved_instr_frac", "ratio"},
	{"campaign.postfault_instrs.benign", "instrs"},
	{"campaign.postfault_instrs.sdc", "instrs"},
	{"campaign.postfault_instrs.due", "instrs"},
	{"campaign.postfault_instrs.detected", "instrs"},
	{"campaign.ffwd_instrs.benign", "instrs"},
	{"campaign.ffwd_instrs.sdc", "instrs"},
	{"campaign.ffwd_instrs.due", "instrs"},
	{"campaign.ffwd_instrs.detected", "instrs"},
	{"equiv.trace_s", "s"},
	{"equiv.plan_s", "s"},
	{"equiv.pilot_runs", "count"},
	{"equiv.pilots_per_effective_run", "ratio"},
	{"bitmask.analyze_s", "s"},
	{"bitmask.masked_bit_frac", "ratio"},
	{"section.build_s", "s"},
	{"section.sections_executed", "count"},
	{"backend.lower_s", "s"},
	{"dup.apply_s", "s"},
	{"pipeline.stage_s.build", "s"},
	{"pipeline.stage_s.dup", "s"},
	{"pipeline.stage_s.lower", "s"},
	{"pipeline.stage_s.campaign", "s"},
	{"pipeline.store_hit_frac", "ratio"},
	{"store.get_ms_p50", "ms"},
	{"store.get_ms_tail", "ms"},
	{"store.put_ms_p50", "ms"},
	{"store.put_ms_tail", "ms"},
	{"store.put_bytes", "bytes"},
	{"service.queue_ms_p50", "ms"},
	{"service.queue_ms_tail", "ms"},
	{"service.exec_ms_p50.fresh", "ms"},
	{"service.exec_ms_p50.repeat", "ms"},
	{"service.exec_ms_p50.pipe", "ms"},
	{"api.submit_ms_p50", "ms"},
	{"api.stream_ms_p50", "ms"},
	{"shard.overhead_ms_per_shard.pipe", "ms"},
	{"shard.steals", "count"},
	{"shard.workers_spawned", "count"},
	{"reclog.bytes_per_run", "bytes"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// layerMetrics returns values as the per-layer metric set, with every
// metric present.
func layerMetrics(values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		out[m.name] = metric{values[m.name], m.unit}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var outcomes = []string{"benign", "sdc", "due", "detected"}

// log2Histogram renders counts of values in power-of-two buckets:
// "0:n" for zeros, then "<2^k:n" for values in [2^(k-1), 2^k).
func log2Histogram(values []int64) string {
	var buckets [65]int
	top := 0
	for _, v := range values {
		b := 0
		if v > 0 {
			b = bits.Len64(uint64(v))
		}
		buckets[b]++
		if b > top {
			top = b
		}
	}
	var parts []string
	for b := 0; b <= top; b++ {
		if buckets[b] == 0 {
			continue
		}
		if b == 0 {
			parts = append(parts, fmt.Sprintf("0:%d", buckets[b]))
		} else {
			parts = append(parts, fmt.Sprintf("<2^%d:%d", b, buckets[b]))
		}
	}
	return strings.Join(parts, " ")
}

// postFaultHistograms renders, per outcome, the histograms of injectable
// instructions executed after the fault and of instructions
// fast-forwarded over, for every traced run whose fault fired.
func postFaultHistograms(spans []span) []string {
	post := map[string][]int64{}
	ffwd := map[string][]int64{}
	for _, s := range spans {
		if s.Injected {
			post[s.Outcome] = append(post[s.Outcome], s.PostFault)
			ffwd[s.Outcome] = append(ffwd[s.Outcome], s.Skipped)
		}
	}
	var lines []string
	for _, o := range outcomes {
		if len(post[o]) == 0 {
			continue
		}
		lines = append(lines,
			fmt.Sprintf("post-fault instrs, %s (%d runs): %s", o, len(post[o]), log2Histogram(post[o])),
			fmt.Sprintf("fast-forwarded instrs, %s (%d runs): %s", o, len(ffwd[o]), log2Histogram(ffwd[o])))
	}
	return lines
}

// panelLayers derives the engine, campaign, equiv, bitmask, section,
// backend and dup metrics of a traced panel pass from its spans, the
// campaign telemetry registry, and the traced operations' statistics.
// setupSpans are the spans of all set-ups.
func panelLayers(spans []span, reg *telemetry.Registry, ops []opResult, setupSpans []span, setups int) map[string]float64 {
	v := map[string]float64{}
	children := map[int64][]interval{}
	busy := map[string]time.Duration{}
	instrs := map[string]int64{}
	var post, ffwd, runs [4]float64
	for _, s := range spans {
		eng, method, isEngine := strings.Cut(s.Name, ".")
		if !isEngine || (eng != "machine" && eng != "interp") {
			continue
		}
		d := s.End - s.Start
		busy[eng] += d
		instrs[eng] += s.Instrs
		children[s.Parent] = append(children[s.Parent], s.interval())
		switch {
		case method == "RunTraced":
			v["equiv.trace_s"] += d.Seconds()
		case s.Golden && method == "Run":
			v["campaign.golden_s"] += d.Seconds()
		case s.Injected:
			for i, o := range outcomes {
				if s.Outcome == o {
					post[i] += float64(s.PostFault)
					ffwd[i] += float64(s.Skipped)
					runs[i]++
				}
			}
		}
	}
	for _, eng := range []string{"machine", "interp"} {
		v[eng+".busy_s"] = busy[eng].Seconds()
		v[eng+".instrs_per_s"] = ratio(float64(instrs[eng]), busy[eng].Seconds())
	}
	for i, o := range outcomes {
		v["campaign.postfault_instrs."+o] = ratio(post[i], runs[i])
		v["campaign.ffwd_instrs."+o] = ratio(ffwd[i], runs[i])
	}
	for _, s := range spans {
		switch s.Name {
		case "campaign.Run":
			v["campaign.self_s"] += selfTime(s.interval(), children[s.ID]).Seconds()
		case "campaign.RunPruned", "campaign.RunSectioned":
			v["equiv.plan_s"] += selfTime(s.interval(), children[s.ID]).Seconds()
		case "bitmask.Analyze":
			v["bitmask.analyze_s"] += (s.End - s.Start).Seconds()
		case "section.Build":
			v["section.build_s"] += (s.End - s.Start).Seconds()
		}
	}
	for _, s := range setupSpans {
		switch s.Name {
		case "backend.Lower":
			v["backend.lower_s"] += (s.End - s.Start).Seconds() / float64(setups)
		case "dup.ApplyFull":
			v["dup.apply_s"] += (s.End - s.Start).Seconds() / float64(setups)
		}
	}

	var slow, executed int64
	for _, e := range []string{"asm", "ir"} {
		slow += reg.Counter(`engine_slow_fallback_total{engine="` + e + `"}`).Value()
		for _, core := range []string{"ref", "fast"} {
			executed += reg.Counter(`engine_instrs_total{engine="` + e + `",core="` + core + `"}`).Value()
		}
	}
	v["engine.slow_fallback_frac"] = ratio(float64(slow), float64(executed))

	var sim, saved, pilots, neff, maskedBits, maskedPop float64
	for _, op := range ops {
		st := op.stats
		switch op.kind {
		case "full":
			sim += float64(st.SimulatedInstrs)
			saved += float64(st.SavedInstrs)
		default:
			pilots += float64(st.PilotRuns)
			neff += op.neff
			v["section.sections_executed"] += float64(st.SectionsExecuted)
			if op.kind == "masked" {
				maskedBits += float64(st.MaskedBits)
				maskedPop += 64 * float64(st.GoldenInjectable)
			}
		}
	}
	v["campaign.saved_instr_frac"] = ratio(saved, sim+saved)
	v["equiv.pilot_runs"] = pilots
	v["equiv.pilots_per_effective_run"] = ratio(pilots, neff)
	v["bitmask.masked_bit_frac"] = ratio(maskedBits, maskedPop)
	return v
}
