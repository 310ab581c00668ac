package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"flowery/internal/asm"
	"flowery/internal/backend"
	"flowery/internal/bench"
	"flowery/internal/bitmask"
	"flowery/internal/campaign"
	"flowery/internal/dup"
	"flowery/internal/experiment"
	"flowery/internal/interp"
	"flowery/internal/ir"
	"flowery/internal/machine"
	"flowery/internal/section"
	"flowery/internal/sim"
	"flowery/internal/telemetry"
)

// program is one benchmark variant ready to run at both layers, derived
// the way the artifact pipeline derives it: build, optionally duplicate
// every duplicable instruction, then lower a private clone.
type program struct {
	name      string
	protected bool
	mod       *ir.Module // the lowered instance both engines run against
	prog      *asm.Program
}

func (p *program) label() string {
	if p.protected {
		return p.name + "/protected"
	}
	return p.name + "/raw"
}

// buildProgram derives one variant, with dup.apply and backend.lower
// spans on rec.
func buildProgram(name string, protected bool, rec *recorder) (*program, error) {
	bm, ok := bench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	m := bm.Build()
	m.AssignAddresses()
	if protected {
		m = ir.CloneModule(m)
		s := rec.start("dup.ApplyFull", 0)
		err := dup.ApplyFull(m)
		rec.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s: dup: %w", name, err)
		}
		m.AssignAddresses()
	}
	c := ir.CloneModule(m)
	s := rec.start("backend.Lower", 0)
	prog, err := backend.Lower(c)
	rec.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: lower: %w", name, err)
	}
	c.AssignAddresses()
	return &program{name: name, protected: protected, mod: c, prog: prog}, nil
}

// factory returns the engine factory for one layer.
func (p *program) factory(layer string) campaign.EngineFactory {
	if layer == "ir" {
		return func() (sim.Engine, error) { return interp.New(p.mod), nil }
	}
	return func() (sim.Engine, error) { return machine.New(p.mod, p.prog) }
}

func engineName(layer string) string {
	if layer == "ir" {
		return "interp"
	}
	return "machine"
}

// cell is one (program, layer, estimator) combination of a panel.
type cell struct {
	prog      *program
	layer     string
	estimator string // "full", "pruned", "masked" or "sectioned"
	golden    sim.Result
}

func (c *cell) label() string {
	l := c.prog.label() + "/" + c.layer
	if c.estimator != "full" {
		l += "/" + c.estimator
	}
	return l
}

// panel is the in-process campaign workloads' state: the cells in pass
// order, the campaign size, and the nominal time of one pass.
type panel struct {
	cells       []*cell
	runs        int
	passSeconds float64
}

// Nominal pass times on a 2-CPU host. A run makes the fixed number of
// whole passes whose nominal time reaches --seconds, so every run of a
// workload does the same work and reports over the same number of
// operations whatever the host's speed at the moment.
const (
	panelFullPassSeconds = 6.5
	estimatorPassSeconds = 42
)

// passes is the number of passes a run of the given length makes.
func passes(seconds, passSeconds float64) int {
	return max(1, int(math.Ceil(seconds/passSeconds)))
}

// setupPanel derives the programs, then runs each cell's golden run once
// (outside set-up timing) as the reference the campaigns' golden runs
// are checked against.
func setupPanel(names []string, variants []bool, layers, estimators []string, runs int, passSeconds float64, rec *recorder) (*panel, error) {
	p := &panel{runs: runs, passSeconds: passSeconds}
	for _, name := range names {
		for _, protected := range variants {
			prog, err := buildProgram(name, protected, rec)
			if err != nil {
				return nil, err
			}
			for _, layer := range layers {
				for _, est := range estimators {
					p.cells = append(p.cells, &cell{prog: prog, layer: layer, estimator: est})
				}
			}
		}
	}
	return p, nil
}

// checkGoldens runs every cell's golden run once.
func (p *panel) checkGoldens() error {
	for _, c := range p.cells {
		e, err := c.prog.factory(c.layer)()
		if err != nil {
			return fmt.Errorf("%s: engine: %w", c.label(), err)
		}
		c.golden = e.Run(sim.Fault{}, sim.Options{})
		if c.golden.Status != sim.StatusOK {
			return fmt.Errorf("%s: golden run ended %v (%v)", c.label(), c.golden.Status, c.golden.Trap)
		}
	}
	return nil
}

func newPanelFull(cfg config, rec *recorder) (*panel, error) {
	return setupPanel(cfg.fullPrograms, []bool{false, true},
		[]string{"ir", "asm"}, []string{"full"}, cfg.panelRuns, panelFullPassSeconds, rec)
}

func newPanelEstimators(cfg config, rec *recorder) (*panel, error) {
	return setupPanel(cfg.estPrograms, []bool{true},
		[]string{"ir", "asm"}, []string{"pruned", "masked", "sectioned"}, cfg.estRuns, estimatorPassSeconds, rec)
}

// runCell runs operation i: cell i mod len(cells) in pass i/len(cells),
// with a campaign seed derived from the workload seed and i. With rec
// set, the engines and the estimator's analyses are traced and the
// campaign reports into reg.
func (p *panel) runCell(i int, wseed int64, rec *recorder, reg *telemetry.Registry) opResult {
	c := p.cells[i%len(p.cells)]
	spec := campaign.Spec{Runs: p.runs, Seed: opSeed(wseed, i), Metrics: reg}
	r := opResult{label: c.label(), kind: c.estimator}
	factory := c.prog.factory(c.layer)
	var ct *campaignTrace
	if rec != nil {
		ct = &campaignTrace{rec: rec, engine: engineName(c.layer)}
		factory = ct.factory(factory)
	}

	start := time.Now()
	var st campaign.Stats
	var err error
	switch c.estimator {
	case "full":
		s := rec.start("campaign.Run", 0)
		ct.setParent(s.ID)
		st, err = campaign.Run(factory, spec)
		rec.end(s)
	case "pruned", "masked":
		spec.Pruning = campaign.PruneClasses
		spec.PilotsPerClass = experiment.DefaultPilotsPerClass
		if c.estimator == "masked" {
			s := rec.start("bitmask.Analyze", 0)
			var a *bitmask.Analysis
			if c.layer == "ir" {
				a = bitmask.AnalyzeIR(c.prog.mod)
			} else {
				a = bitmask.AnalyzeASM(c.prog.prog)
			}
			rec.end(s)
			spec.Masks = a.Masked
		}
		s := rec.start("campaign.RunPruned", 0)
		ct.setParent(s.ID)
		st, err = campaign.RunPruned(factory, spec)
		rec.end(s)
	case "sectioned":
		s := rec.start("section.Build", 0)
		var t *section.Table
		if c.layer == "ir" {
			t = section.BuildIR(c.prog.mod)
		} else {
			t = section.BuildASM(c.prog.prog)
		}
		rec.end(s)
		s = rec.start("campaign.RunSectioned", 0)
		ct.setParent(s.ID)
		var res campaign.SectionedResult
		res, err = campaign.RunSectioned(factory, spec, campaign.SectionedOpts{Table: t})
		st = res.Stats
		rec.end(s)
	default:
		err = fmt.Errorf("unknown estimator %q", c.estimator)
	}
	r.latency = time.Since(start)
	if err != nil {
		r.err = fmt.Errorf("%s: %w", c.label(), err)
		return r
	}
	r.stats = st
	r.injections = int64(st.Runs)
	if st.Pruned {
		r.injections = int64(st.PilotRuns)
	}
	r.err = checkCampaign(c, st)
	if r.err == nil {
		p, lo, hi := st.SDCRateCI()
		neff, ok := effectiveRuns(st.Runs, p, lo, hi)
		if !ok {
			r.err = fmt.Errorf("%s: estimator reported a zero-width interval [%g, %g]", c.label(), lo, hi)
		}
		r.neff = neff
	}
	return r
}

// setParent points the engines of a traced campaign at the span of the
// campaign call (no-op untraced).
func (c *campaignTrace) setParent(id int64) {
	if c != nil {
		c.parent = id
	}
}

// checkCampaign is the per-campaign output check: outcome counts sum to
// Runs, and the campaign's golden run is the reference golden run, which
// ended StatusOK.
func checkCampaign(c *cell, st campaign.Stats) error {
	sum := 0
	for _, n := range st.Counts {
		sum += n
	}
	if sum != st.Runs {
		return fmt.Errorf("%s: outcome counts sum to %d, want Runs=%d", c.label(), sum, st.Runs)
	}
	if st.GoldenDyn != c.golden.DynInstrs || st.GoldenInjectable != c.golden.InjectableInstrs {
		return fmt.Errorf("%s: campaign golden run (%d instrs, %d injectable) differs from the reference golden run (%d, %d)",
			c.label(), st.GoldenDyn, st.GoldenInjectable, c.golden.DynInstrs, c.golden.InjectableInstrs)
	}
	if st.Pruned {
		p, lo, hi := st.SDCRateCI()
		if !(lo <= p && p <= hi) {
			return fmt.Errorf("%s: SDC estimate %g outside its own interval [%g, %g]", c.label(), p, lo, hi)
		}
	}
	return nil
}

// runPanel runs one of the in-process panel workloads.
func runPanel(cfg config, w io.Writer, newPanel func(config, *recorder) (*panel, error)) (*result, error) {
	var setupRec *recorder
	if cfg.trace {
		setupRec = newRecorder()
	}
	p, setupS, setups, err := timeSetup(func() (*panel, error) { return newPanel(cfg, setupRec) }, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := p.checkGoldens(); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%d cells per pass, %d runs each\n", len(p.cells), p.runs)

	res := &result{}
	n := passes(cfg.seconds, p.passSeconds) * len(p.cells)
	ops, wall := p.measure(cfg.seed, nil, nil, n)
	res.countOps(ops)
	passLat := make([]time.Duration, len(ops)/len(p.cells))
	for i, op := range ops {
		passLat[i/len(p.cells)] += op.latency
	}
	endToEnd(res, ops, passLat, wall, setupS)
	res.note("untraced: %d operations (%d passes) in %.3f s", len(ops), len(ops)/len(p.cells), wall.Seconds())
	for _, c := range p.cells {
		var lat []float64
		var inj int64
		for _, op := range ops {
			if op.label == c.label() {
				lat = append(lat, float64(op.latency)/float64(time.Millisecond))
				inj += op.injections
			}
		}
		res.note("  %-40s median %9.1f ms, %6d injections per op", c.label(), median(lat), inj/int64(len(lat)))
	}
	if !cfg.trace {
		return res, nil
	}

	rec, reg := newRecorder(), telemetry.New()
	tops, twall := p.measure(cfg.seed, rec, reg, n)
	res.countOps(tops)
	res.attempted += len(ops) // the pairwise outcome comparisons
	res.fail(compareOutcomes(ops, tops)...)
	spans := rec.all()
	v := panelLayers(spans, reg, tops, setupRec.all(), setups)
	res.notes = append(res.notes, postFaultHistograms(spans)...)
	if err := res.reportTraced(cfg, v, len(tops), wall, twall, rec); err != nil {
		return nil, err
	}
	return res, nil
}

// measure runs operations 0..count-1 and returns them with the wall
// time they took.
func (p *panel) measure(wseed int64, rec *recorder, reg *telemetry.Registry, count int) ([]opResult, time.Duration) {
	start := time.Now()
	var ops []opResult
	for i := 0; i < count; i++ {
		ops = append(ops, p.runCell(i, wseed, rec, reg))
	}
	return ops, time.Since(start)
}
