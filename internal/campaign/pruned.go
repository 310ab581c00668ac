package campaign

import (
	"time"

	"flowery/internal/asm"
	"flowery/internal/equiv"
	"flowery/internal/sim"
	"flowery/internal/stats"
)

// MaxPilotsPerClass bounds Spec.PilotsPerClass (the average per-class
// pilot budget); it matches the per-class site sample the trace
// collector retains, so a larger average would outgrow the reservoir.
const MaxPilotsPerClass = 8

// RunPruned executes an equivalence-pruned campaign: the golden run is
// traced (sim.TraceEngine) to partition the injectable fault population
// into def-use equivalence classes, a pilot budget of PilotsPerClass
// per live class is allocated across strata by class weight
// (equiv.BuildPlan), dead classes (values never read) are scored benign
// without injection, and per-stratum outcome rates are extrapolated to
// population-level statistics with stratified confidence intervals
// (package stats). See DESIGN.md §10 for the equivalence model and its
// soundness caveats.
//
// The returned Stats has Pruned set; Counts are the stratified estimates
// scaled to spec.Runs so downstream consumers that expect a campaign of
// that size keep working.
func RunPruned(factory EngineFactory, spec Spec) (Stats, error) {
	if spec.Pruning != PruneClasses {
		return Run(factory, spec)
	}
	start := time.Now()
	if err := spec.Validate(); err != nil {
		return Stats{}, err
	}

	c, err := prepare(factory, spec, goldenTraced)
	if err != nil {
		return Stats{}, err
	}
	defer c.close()
	part := c.part

	plan := equiv.BuildPlan(part, equiv.PlanSpec{PilotsPerClass: spec.PilotsPerClass, Seed: spec.Seed, Masked: spec.Masks})
	var faults []sim.Fault
	var stratumOf []int
	for si := range plan.Strata {
		for _, f := range plan.Strata[si].Pilots {
			faults = append(faults, f)
			stratumOf = append(stratumOf, si)
		}
	}
	outcomes, simulated, saved, err := c.execute(faults)
	if err != nil {
		return Stats{}, err
	}

	// Per-stratum outcome tallies, plus SDC origin weights (each pilot
	// speaks for its stratum's choice mass, in site units, divided by
	// the pilot count; without masks that is Sites/len(Pilots) exactly).
	tallies := make([][NumOutcomes]int, len(plan.Strata))
	var originW [asm.NumOrigins]float64
	for j := range outcomes {
		si := stratumOf[j]
		tallies[si][outcomes[j].outcome]++
		if outcomes[j].outcome == OutcomeSDC {
			s := &plan.Strata[si]
			originW[outcomes[j].origin] += float64(s.Choices) / 64 / float64(len(s.Pilots))
		}
	}

	// Stratum weights are measured in (site, bit-choice) pairs out of
	// the 64 × population alphabet. Without masks every stratum carries
	// Choices = 64 × Sites, so the ratio reduces to the PR 3 site
	// weight exactly (both scalings by 64 are lossless in float64).
	pairPop := 64 * float64(part.Population)
	total := Stats{
		Runs:             spec.Runs,
		GoldenDyn:        c.golden.DynInstrs,
		GoldenInjectable: c.golden.InjectableInstrs,
		SimulatedInstrs:  c.setupInstrs() + simulated,
		SavedInstrs:      saved,
		Pruned:           true,
		Classes:          len(part.Classes),
		DeadSites:        part.DeadSites,
		DeadBits:         64 * part.DeadSites,
		PilotRuns:        len(faults),
	}
	for si := range plan.Strata {
		if plan.Strata[si].Masked {
			total.MaskedSites = plan.Strata[si].Sites
			total.MaskedBits = plan.Strata[si].Choices
		}
	}
	for o := Outcome(0); o < NumOutcomes; o++ {
		st := make([]stats.Stratum, 0, len(plan.Strata))
		for si := range plan.Strata {
			s := &plan.Strata[si]
			w := float64(s.Choices) / pairPop
			if s.Exact {
				// Dead sites and statically proven-masked choices are
				// benign by construction: the flipped value (or bit) is
				// never read at this layer, so it can neither trap nor
				// reach the output.
				hits := 0
				if o == OutcomeBenign {
					hits = 1
				}
				st = append(st, stats.Stratum{Weight: w, Hits: hits, Total: 1, Exact: true})
				continue
			}
			st = append(st, stats.Stratum{Weight: w, Hits: tallies[si][o], Total: len(s.Pilots)})
		}
		if o == OutcomeSDC {
			total.EstRates[o], total.SDCLo, total.SDCHi = stats.StratifiedCI(st, stats.Z95)
		} else {
			total.EstRates[o] = stats.StratifiedP(st)
		}
	}

	counts := apportion(total.EstRates[:], spec.Runs)
	copy(total.Counts[:], counts)
	origins := apportion(originW[:], total.Counts[OutcomeSDC])
	copy(total.SDCByOrigin[:], origins)
	total.Elapsed = time.Since(start)
	flushStats(spec.Metrics, total)
	return total, nil
}

// apportion rounds nonnegative shares to integers summing to total
// (largest-remainder method; ties broken toward lower indices so the
// result is deterministic). Shares need not be normalized. All-zero
// shares yield all-zero counts.
func apportion(shares []float64, total int) []int {
	out := make([]int, len(shares))
	if total <= 0 {
		return out
	}
	sum := 0.0
	for _, s := range shares {
		if s > 0 {
			sum += s
		}
	}
	if sum == 0 {
		return out
	}
	type frac struct {
		i int
		f float64
	}
	rem := total
	fracs := make([]frac, 0, len(shares))
	for i, s := range shares {
		if s <= 0 {
			continue
		}
		exact := s / sum * float64(total)
		fl := int(exact)
		out[i] = fl
		rem -= fl
		fracs = append(fracs, frac{i, exact - float64(fl)})
	}
	for ; rem > 0; rem-- {
		best := -1
		for j := range fracs {
			if best < 0 || fracs[j].f > fracs[best].f {
				best = j
			}
		}
		if best < 0 {
			break
		}
		out[fracs[best].i]++
		fracs[best].f = -1
	}
	return out
}
