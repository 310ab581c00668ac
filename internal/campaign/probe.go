package campaign

import (
	"fmt"
	"math/bits"
	"time"

	"flowery/internal/sim"
)

// ProbeStats summarizes a masked-bit validation probe (MaskedProbe):
// a sample of statically proven-masked (site, bit) faults actually
// injected so the analysis's benign claim is checked against the
// injector instead of trusted blindly.
type ProbeStats struct {
	// Samples is the number of masked-choice injections executed;
	// Benign counts those classified benign. Agreement() is their
	// ratio — the static-vs-dynamic agreement rate, 1.0 when every
	// sampled proven-masked bit was indeed benign.
	Samples int
	Benign  int
	// MaskedSites and MaskedBits describe the proven-masked population
	// the sample was drawn from (live dynamic sites with ≥1 masked
	// choice, and masked (site, choice) pairs); TotalBits is the whole
	// 64 × population alphabet.
	MaskedSites int64
	MaskedBits  int64
	TotalBits   int64
	// Elapsed is the probe wall-clock time.
	Elapsed time.Duration
}

// Agreement returns the fraction of sampled proven-masked injections
// that were benign (1 when nothing was sampled: no claims, no
// disagreement).
func (p ProbeStats) Agreement() float64 {
	if p.Samples == 0 {
		return 1
	}
	return float64(p.Benign) / float64(p.Samples)
}

// MaskedProbe validates spec.Masks dynamically: it traces the golden
// run, partitions the fault population (exactly as RunPruned would),
// enumerates the statically proven-masked choices of live classes, and
// injects a weighted sample of them, classifying each outcome. Every
// sampled fault is one the pruned+masked campaign would have scored
// benign without running — so any non-benign outcome is a soundness
// bug in the masking analysis, surfaced here and gated in CI.
//
// The spec must be a valid PruneClasses spec with Masks set; samples
// caps the injection count.
func MaskedProbe(factory EngineFactory, spec Spec, samples int) (ProbeStats, error) {
	start := time.Now()
	if err := spec.Validate(); err != nil {
		return ProbeStats{}, err
	}
	if spec.Pruning != PruneClasses || spec.Masks == nil {
		return ProbeStats{}, fmt.Errorf("campaign: MaskedProbe needs Pruning: classes and Masks set")
	}
	if samples < 1 {
		return ProbeStats{}, fmt.Errorf("campaign: MaskedProbe samples must be >= 1 (got %d)", samples)
	}

	c, err := prepare(factory, spec, goldenProbe)
	if err != nil {
		return ProbeStats{}, err
	}
	defer c.close()
	part := c.part

	// Enumerate the masked population: for each live class, the masked
	// choice list and its (site × choice) mass.
	type maskedClass struct {
		ci      int
		choices []int
		pairs   uint64
	}
	var mcs []maskedClass
	probe := ProbeStats{TotalBits: 64 * part.Population}
	for ci := range part.Classes {
		cl := &part.Classes[ci]
		if cl.Dead || len(cl.Sample) == 0 {
			continue
		}
		m := spec.Masks(cl.Static, cl.Width)
		if m == 0 {
			continue
		}
		var choices []int
		for b := 0; b < 64; b++ {
			if m&(1<<uint(b)) != 0 {
				choices = append(choices, b)
			}
		}
		mcs = append(mcs, maskedClass{ci: ci, choices: choices, pairs: uint64(cl.Size) * uint64(len(choices))})
		probe.MaskedSites += cl.Size
		probe.MaskedBits += cl.Size * int64(bits.OnesCount64(m))
	}
	if len(mcs) == 0 {
		probe.Elapsed = time.Since(start)
		return probe, nil // nothing proven masked: vacuous agreement
	}
	var totalPairs uint64
	for i := range mcs {
		totalPairs += mcs[i].pairs
	}

	// Sample (class by choice mass, site from the reservoir, choice
	// uniformly over the class's masked list), deterministically from
	// the seed.
	faults := make([]sim.Fault, samples)
	for i := range faults {
		h := splitmix64(uint64(spec.Seed) ^ splitmix64(uint64(i)+0x5851f42d4c957f2d))
		target := h % totalPairs
		var mc *maskedClass
		for j := range mcs {
			if target < mcs[j].pairs {
				mc = &mcs[j]
				break
			}
			target -= mcs[j].pairs
		}
		cl := &part.Classes[mc.ci]
		h = splitmix64(h)
		site := cl.Sample[h%uint64(len(cl.Sample))]
		h = splitmix64(h)
		faults[i] = sim.Fault{TargetIndex: site, Bit: mc.choices[h%uint64(len(mc.choices))]}
	}

	outcomes, _, _, err := c.execute(faults)
	if err != nil {
		return ProbeStats{}, err
	}
	probe.Samples = len(outcomes)
	for i := range outcomes {
		if outcomes[i].outcome == OutcomeBenign {
			probe.Benign++
		}
	}
	probe.Elapsed = time.Since(start)
	return probe, nil
}
