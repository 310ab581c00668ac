package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"flowery/internal/asm"
	"flowery/internal/equiv"
	"flowery/internal/section"
	"flowery/internal/sim"
	"flowery/internal/stats"
)

// SectionStratumSummary is one stratum of a section's error-propagation
// summary: a within-section weight plus the pilot outcome tallies.
// Exact strata (dead defs, statically proven-masked choices) follow
// RunPruned's convention of a single synthetic benign observation.
type SectionStratumSummary struct {
	// Weight is the stratum's share of the section's own (site,
	// bit-choice) population; a section's weights sum to 1.
	Weight float64 `json:"weight"`
	// Exact marks zero-variance strata whose outcome is known without
	// injection.
	Exact bool `json:"exact,omitempty"`
	// Total is the pilot count (1 for exact strata).
	Total int `json:"total"`
	// Counts are the pilot outcome tallies in Outcome order.
	Counts [NumOutcomes]int `json:"counts"`
}

// SectionSummary is the stored error-propagation summary of one program
// section: a self-contained stratified estimate of the section's fault
// outcomes — masked (benign), corrupt-but-detected (detected/DUE), and
// silently corrupt (SDC) — classified at the program boundary. All
// weights are section-relative, so the summary never references the
// rest of the program and stays valid under edits elsewhere as long as
// the section's own content hash and dynamic site count are unchanged
// (the two components of its recall fingerprint).
type SectionSummary struct {
	Name string `json:"name"`
	Hash string `json:"hash"`
	// Sites is the section's dynamic injectable site count.
	Sites int64 `json:"sites"`
	// Classes is the number of equivalence classes the summary's strata
	// were built from (0 under the uniform plan).
	Classes   int   `json:"classes,omitempty"`
	DeadSites int64 `json:"dead_sites,omitempty"`
	// MaskedSites/MaskedBits mirror Stats' fields, section-scoped.
	MaskedSites int64 `json:"masked_sites,omitempty"`
	MaskedBits  int64 `json:"masked_bits,omitempty"`
	// PilotRuns is the number of injections the summary cost when it
	// was computed (recalling it costs zero).
	PilotRuns int `json:"pilot_runs"`
	// Strata are the within-section strata.
	Strata []SectionStratumSummary `json:"strata"`
	// OriginW, when present, attributes the section's SDC rate to
	// assembly provenance tags (asm.Origin order, section-relative site
	// rate units).
	OriginW []float64 `json:"origin_w,omitempty"`
}

// OutcomeStrata views the summary as a stats stratification for one
// outcome, in section-relative weights (compose with the section's
// population share via stats.SectionStrata).
func (s *SectionSummary) OutcomeStrata(o Outcome) []stats.Stratum {
	out := make([]stats.Stratum, len(s.Strata))
	for i, st := range s.Strata {
		out[i] = stats.Stratum{Weight: st.Weight, Hits: st.Counts[o], Total: st.Total, Exact: st.Exact}
	}
	return out
}

// Rate is the section's own estimated rate for one outcome.
func (s *SectionSummary) Rate(o Outcome) float64 {
	return stats.StratifiedP(s.OutcomeStrata(o))
}

// SectionReport is one section's row of a sectioned campaign result.
type SectionReport struct {
	Name string `json:"name"`
	Hash string `json:"hash"`
	// Sites and Weight place the section in the whole program.
	Sites  int64   `json:"sites"`
	Weight float64 `json:"weight"`
	// Recalled marks sections served from a stored summary; PilotRuns
	// is the summary's original injection cost either way.
	Recalled  bool `json:"recalled"`
	PilotRuns int  `json:"pilot_runs"`
	// SDC is the section's own silent-corruption rate; SDCMass is its
	// contribution Weight×SDC to the whole-program rate — the benefit
	// term of budgeted protection placement.
	SDC     float64 `json:"sdc"`
	SDCMass float64 `json:"sdc_mass"`
}

// SectionedResult is a sectioned campaign's composed statistics plus
// the per-section breakdown.
type SectionedResult struct {
	Stats    Stats           `json:"stats"`
	Sections []SectionReport `json:"sections"`
}

// SectionedOpts wires RunSectioned to a section table and (optionally)
// a persistent summary store. Recall and Persist speak fingerprint →
// JSON summary blob; the fingerprint already encodes everything
// outcome-relevant about the section (content hash, dynamic site
// count, plan shape), so callers only add ambient identity — layer,
// seed, backend config — to form a store key.
type SectionedOpts struct {
	Table *section.Table
	// Recall returns the stored summary blob for a fingerprint, if any.
	Recall func(fingerprint string) ([]byte, bool)
	// Persist stores a freshly computed summary blob.
	Persist func(fingerprint string, blob []byte)
}

// sectionSeed derives a per-section RNG seed from the campaign seed and
// the section's content hash, so a section's pilot choices are stable
// under edits elsewhere (a program edit renumbers sections and shifts
// static indices, but hashes of untouched functions survive).
func sectionSeed(seed int64, hash string) int64 {
	h, err := strconv.ParseUint(hash[:16], 16, 64)
	if err != nil {
		h = 0
	}
	return int64(splitmix64(uint64(seed) ^ h))
}

// quantRateExp quantizes the campaign's per-site sampling rate
// Runs/Population to a power of √2, returned as the doubled log2
// exponent. Keying uniform-plan fingerprints on the quantized exponent
// instead of the raw population keeps a clean section's fingerprint
// stable when an edit shifts the whole-program population slightly:
// re-analysis reuses the section at the old (within-√2) rate, and the
// stratified composition is indifferent to modestly unequal per-section
// allocation.
func quantRateExp(runs int, population int64) int {
	return int(math.Round(2 * math.Log2(float64(runs)/float64(population))))
}

// uniformStrata is the sectioned campaign's unpruned plan: one stratum
// of pilots drawn marginally uniformly over the section's live (site,
// bit) population — class chosen by size, site from the class's
// stream-stratified sample, bit uniform, exactly the merged-tail
// sampling of equiv.BuildPlan — plus the exact dead stratum.
func uniformStrata(part equiv.Partition, pilots int, seed int64) []equiv.Stratum {
	var live []int
	var liveSites, deadSites int64
	for ci := range part.Classes {
		cl := &part.Classes[ci]
		// Every live class carries at least its first member in Sample;
		// the len check is the same defensive guard BuildPlan applies.
		if cl.Dead || len(cl.Sample) == 0 {
			deadSites += cl.Size
			continue
		}
		live = append(live, ci)
		liveSites += cl.Size
	}
	var strata []equiv.Stratum
	if liveSites > 0 {
		n := pilots
		if n < 1 {
			n = 1
		}
		if max := 64 * liveSites; int64(n) > max {
			n = int(max)
		}
		rng := splitmix64(uint64(seed)^splitmix64(0x9e3779b97f4a7c15)) | 1
		pf := make([]sim.Fault, n)
		for i := 0; i < n; i++ {
			rng = splitmix64(rng)
			target := rng % uint64(liveSites)
			var cl *equiv.Class
			for _, ci := range live {
				c := &part.Classes[ci]
				if target < uint64(c.Size) {
					cl = c
					break
				}
				target -= uint64(c.Size)
			}
			rng = splitmix64(rng)
			site := cl.Sample[rng%uint64(len(cl.Sample))]
			rng = splitmix64(rng)
			pf[i] = sim.Fault{TargetIndex: site, Bit: int(rng % 64)}
		}
		strata = append(strata, equiv.Stratum{Class: -1, Sites: liveSites, Choices: 64 * liveSites, Pilots: pf})
	}
	if deadSites > 0 {
		strata = append(strata, equiv.Stratum{Class: -1, Sites: deadSites, Choices: 64 * deadSites, Exact: true})
	}
	return strata
}

// RunSectioned executes a compositional per-section campaign: the
// golden run is traced once to partition the fault population by
// section (opts.Table), each section is either recalled from a stored
// summary — keyed by content hash, dynamic site count, and plan shape,
// so summaries survive edits elsewhere in the program — or estimated
// with its own pilot injections, and the per-section summaries compose
// into whole-program statistics via stats.ComposeSections.
//
// Pruning composes: PruneNone samples each section uniformly at the
// campaign's (quantized) per-site rate; PruneClasses builds a
// per-section equivalence plan with Spec.PilotsPerClass, and Masks
// folds statically proven-masked choices into exact strata exactly as
// in RunPruned. Records are unsupported — like pruned campaigns,
// sectioned ones have no per-run population sample.
//
// The returned Stats has Pruned and Sectioned set; PilotRuns counts
// only the injections this call executed, which is the incremental
// re-analysis cost when summaries were recalled.
func RunSectioned(factory EngineFactory, spec Spec, opts SectionedOpts) (SectionedResult, error) {
	start := time.Now()
	if opts.Table == nil {
		return SectionedResult{}, fmt.Errorf("campaign: sectioned run needs a section table")
	}
	if spec.Records != nil {
		return SectionedResult{}, fmt.Errorf("campaign: sectioned campaigns extrapolate per-section strata and have no per-run records")
	}
	if err := spec.Validate(); err != nil {
		return SectionedResult{}, err
	}

	c, err := prepare(factory, spec, goldenTraced)
	if err != nil {
		return SectionedResult{}, err
	}
	defer c.close()
	part := c.part

	subs, err := opts.Table.Split(part)
	if err != nil {
		return SectionedResult{}, err
	}

	// Fingerprint suffix shared by every section: the plan shape.
	var planKey string
	var rate float64
	if spec.Pruning == PruneClasses {
		planKey = fmt.Sprintf("plan=classes|k=%d", spec.PilotsPerClass)
		if spec.Masks != nil {
			planKey += "|mask=1"
		}
	} else {
		e := quantRateExp(spec.Runs, part.Population)
		rate = math.Pow(2, float64(e)/2)
		planKey = fmt.Sprintf("plan=uniform|r=%d", e)
	}

	// Recall or plan each section. Dirty sections contribute their
	// pilots to one shared execution batch.
	summaries := make([]*SectionSummary, len(subs))
	recalled := make([]bool, len(subs))
	planStrata := make([][]equiv.Stratum, len(subs))
	var faults []sim.Fault
	type pilotRef struct{ sub, stratum int }
	var refs []pilotRef
	for i := range subs {
		sec := &opts.Table.Sections[subs[i].ID]
		fp := fmt.Sprintf("%s|n=%d|%s", sec.Hash, subs[i].Part.Population, planKey)
		if opts.Recall != nil {
			if blob, ok := opts.Recall(fp); ok {
				var sum SectionSummary
				if json.Unmarshal(blob, &sum) == nil && sum.Sites == subs[i].Part.Population && len(sum.Strata) > 0 {
					summaries[i] = &sum
					recalled[i] = true
					continue
				}
			}
		}
		seed := sectionSeed(spec.Seed, sec.Hash)
		if spec.Pruning == PruneClasses {
			plan := equiv.BuildPlan(subs[i].Part, equiv.PlanSpec{PilotsPerClass: spec.PilotsPerClass, Seed: seed, Masked: spec.Masks})
			planStrata[i] = plan.Strata
		} else {
			n := int(math.Round(rate * float64(subs[i].Part.Population-subs[i].Part.DeadSites)))
			planStrata[i] = uniformStrata(subs[i].Part, n, seed)
		}
		for si := range planStrata[i] {
			for _, f := range planStrata[i][si].Pilots {
				faults = append(faults, f)
				refs = append(refs, pilotRef{i, si})
			}
		}
	}

	// One batch executes every dirty section's pilots.
	outcomes, simulated, saved, err := c.execute(faults)
	if err != nil {
		return SectionedResult{}, err
	}

	// Per-(section, stratum) tallies and per-section SDC origin weights
	// in section-relative site-rate units.
	tallies := make([][][NumOutcomes]int, len(subs))
	originW := make([][asm.NumOrigins]float64, len(subs))
	for i := range subs {
		tallies[i] = make([][NumOutcomes]int, len(planStrata[i]))
	}
	for j := range outcomes {
		r := refs[j]
		tallies[r.sub][r.stratum][outcomes[j].outcome]++
		if outcomes[j].outcome == OutcomeSDC {
			s := &planStrata[r.sub][r.stratum]
			nS := float64(subs[r.sub].Part.Population)
			originW[r.sub][outcomes[j].origin] += float64(s.Choices) / 64 / float64(len(s.Pilots)) / nS
		}
	}

	// Summarize dirty sections and persist their summaries.
	for i := range subs {
		if recalled[i] {
			continue
		}
		sec := &opts.Table.Sections[subs[i].ID]
		nS := subs[i].Part.Population
		sum := &SectionSummary{
			Name:      sec.Name,
			Hash:      sec.Hash,
			Sites:     nS,
			DeadSites: subs[i].Part.DeadSites,
		}
		if spec.Pruning == PruneClasses {
			sum.Classes = len(subs[i].Part.Classes)
		}
		for si := range planStrata[i] {
			st := &planStrata[i][si]
			ss := SectionStratumSummary{
				Weight: float64(st.Choices) / 64 / float64(nS),
				Exact:  st.Exact,
			}
			if st.Exact {
				ss.Total = 1
				ss.Counts[OutcomeBenign] = 1
			} else {
				ss.Total = len(st.Pilots)
				ss.Counts = tallies[i][si]
				sum.PilotRuns += len(st.Pilots)
			}
			if st.Masked {
				sum.MaskedSites = st.Sites
				sum.MaskedBits = st.Choices
			}
			sum.Strata = append(sum.Strata, ss)
		}
		for _, w := range originW[i] {
			if w > 0 {
				sum.OriginW = append([]float64(nil), originW[i][:]...)
				break
			}
		}
		summaries[i] = sum
		if opts.Persist != nil {
			if blob, merr := json.Marshal(sum); merr == nil {
				opts.Persist(fmt.Sprintf("%s|n=%d|%s", sec.Hash, nS, planKey), blob)
			}
		}
	}

	// Compose summaries into whole-program statistics.
	total := Stats{
		Runs:             spec.Runs,
		GoldenDyn:        c.golden.DynInstrs,
		GoldenInjectable: c.golden.InjectableInstrs,
		SimulatedInstrs:  c.setupInstrs() + simulated,
		SavedInstrs:      saved,
		Pruned:           true,
		Sectioned:        true,
		Sections:         len(subs),
		PilotRuns:        len(faults),
	}
	N := float64(part.Population)
	var globalOriginW [asm.NumOrigins]float64
	reports := make([]SectionReport, len(subs))
	for i, sum := range summaries {
		w := float64(sum.Sites) / N
		total.Classes += sum.Classes
		total.DeadSites += sum.DeadSites
		total.MaskedSites += sum.MaskedSites
		total.MaskedBits += sum.MaskedBits
		if recalled[i] {
			total.SectionsRecalled++
		} else {
			total.SectionsExecuted++
		}
		for o, ow := range sum.OriginW {
			globalOriginW[o] += w * ow
		}
		sdc := sum.Rate(OutcomeSDC)
		reports[i] = SectionReport{
			Name:      sum.Name,
			Hash:      sum.Hash,
			Sites:     sum.Sites,
			Weight:    w,
			Recalled:  recalled[i],
			PilotRuns: sum.PilotRuns,
			SDC:       sdc,
			SDCMass:   w * sdc,
		}
	}
	total.DeadBits = 64 * total.DeadSites
	for o := Outcome(0); o < NumOutcomes; o++ {
		secs := make([]stats.SectionStrata, len(summaries))
		for i, sum := range summaries {
			secs[i] = stats.SectionStrata{Weight: float64(sum.Sites) / N, Strata: sum.OutcomeStrata(o)}
		}
		if o == OutcomeSDC {
			total.EstRates[o], total.SDCLo, total.SDCHi = stats.ComposeSections(secs, stats.Z95)
		} else {
			total.EstRates[o] = stats.StratifiedP(stats.FlattenSections(secs))
		}
	}
	counts := apportion(total.EstRates[:], spec.Runs)
	copy(total.Counts[:], counts)
	origins := apportion(globalOriginW[:], total.Counts[OutcomeSDC])
	copy(total.SDCByOrigin[:], origins)
	total.Elapsed = time.Since(start)
	flushStats(spec.Metrics, total)
	return SectionedResult{Stats: total, Sections: reports}, nil
}
