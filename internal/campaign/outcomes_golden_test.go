package campaign

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"flowery/internal/backend"
	"flowery/internal/bench"
	"flowery/internal/bitmask"
	"flowery/internal/dup"
	"flowery/internal/interp"
	"flowery/internal/ir"
	"flowery/internal/machine"
	"flowery/internal/reclog"
	"flowery/internal/section"
	"flowery/internal/sim"
	"flowery/internal/telemetry"
)

var updateOutcomes = flag.Bool("update", false, "rewrite testdata/outcomes.golden")

// goldenLayer is protected crc32 compiled the way the pipeline compiles
// it, at one layer: an engine factory plus that layer's section table
// and static masks.
type goldenLayer struct {
	name    string
	factory EngineFactory
	table   *section.Table
	masks   func(static int32, width uint8) uint64
}

func protectedCRC32(t *testing.T) []goldenLayer {
	t.Helper()
	bm, ok := bench.ByName("crc32")
	if !ok {
		t.Fatal("crc32 benchmark missing")
	}
	m := bm.Build()
	if err := dup.ApplyFull(m); err != nil {
		t.Fatal(err)
	}
	m = ir.CloneModule(m)
	prog, err := backend.Lower(m)
	if err != nil {
		t.Fatal(err)
	}
	m.AssignAddresses()
	return []goldenLayer{
		{
			name:    "ir",
			factory: func() (sim.Engine, error) { return interp.New(m), nil },
			table:   section.BuildIR(m),
			masks:   bitmask.AnalyzeIR(m).Masked,
		},
		{
			name:    "asm",
			factory: func() (sim.Engine, error) { return machine.New(m, prog) },
			table:   section.BuildASM(prog),
			masks:   bitmask.AnalyzeASM(prog).Masked,
		},
	}
}

// writeOutcomes renders every determinism-guaranteed Stats field, with
// floats as their IEEE-754 bit patterns, so any drift — even in the last
// ulp of an estimate — changes the text.
func writeOutcomes(w *bytes.Buffer, tag string, s Stats) {
	f := func(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }
	fmt.Fprintf(w, "%s runs=%d counts=%v origins=%v golden=%d/%d\n",
		tag, s.Runs, s.Counts, s.SDCByOrigin, s.GoldenDyn, s.GoldenInjectable)
	if !s.Pruned {
		return
	}
	fmt.Fprintf(w, "%s est=[%s %s %s %s] sdc=[%s %s] pilots=%d classes=%d dead=%d/%d masked=%d/%d\n",
		tag, f(s.EstRates[0]), f(s.EstRates[1]), f(s.EstRates[2]), f(s.EstRates[3]), f(s.SDCLo), f(s.SDCHi),
		s.PilotRuns, s.Classes, s.DeadSites, s.DeadBits, s.MaskedSites, s.MaskedBits)
	if s.Sectioned {
		fmt.Fprintf(w, "%s sections=%d executed=%d recalled=%d\n",
			tag, s.Sections, s.SectionsExecuted, s.SectionsRecalled)
	}
}

// reclogBytes is the records' reclog encoding: the bytes `flowery
// inject -reclog` and the shard transport would carry.
func reclogBytes(t *testing.T, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := reclog.NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(reclog.Record{Run: int64(r.Run), Outcome: uint8(r.Outcome), Origin: uint8(r.Origin), Target: r.Target, Bit: r.Bit}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recordDigest is the sha256 of the records' reclog encoding.
func recordDigest(t *testing.T, recs []Record) string {
	t.Helper()
	return fmt.Sprintf("%x", sha256.Sum256(reclogBytes(t, recs)))
}

// TestCampaignOutcomesGolden pins the outcome fields of every campaign
// entry point — full (snapshots on and off), in-process sharded, pruned
// (with and without static masks), sectioned (uniform, classes, and a
// fully recalled rerun) and the masked probe — on protected crc32 at
// both layers. Refactors of the campaign core must leave
// testdata/outcomes.golden byte-identical; regenerate it with -update
// only for an intended change of outcomes. The pin executes ~120k
// injections, so it skips under -short and -race; scripts/ci.sh runs it
// in a plain build.
func TestCampaignOutcomesGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs every campaign mode at both layers")
	}
	var out bytes.Buffer
	for _, l := range protectedCRC32(t) {
		base := Spec{Runs: 600, Seed: 7, Workers: 3}
		for _, snap := range []int{0, SnapshotsOff} {
			spec := base
			spec.Snapshots = snap
			var recs []Record
			spec.Records = func(r Record) { recs = append(recs, r) }
			st, err := Run(l.factory, spec)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("%s/run/snap=%d", l.name, snap)
			writeOutcomes(&out, tag, st)
			fmt.Fprintf(&out, "%s reclog=%s\n", tag, recordDigest(t, recs))
		}
		for _, shards := range []int{1, 3, 8} {
			spec := base
			var recs []Record
			spec.Records = func(r Record) { recs = append(recs, r) }
			st, err := RunSharded(l.factory, spec, ShardOpts{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("%s/sharded/%d", l.name, shards)
			writeOutcomes(&out, tag, st)
			fmt.Fprintf(&out, "%s reclog=%s\n", tag, recordDigest(t, recs))
		}

		pruned := Spec{Runs: 2000, Seed: 7, Workers: 3, Pruning: PruneClasses, PilotsPerClass: 3}
		for _, masked := range []bool{false, true} {
			spec := pruned
			if masked {
				spec.Masks = l.masks
			}
			st, err := RunPruned(l.factory, spec)
			if err != nil {
				t.Fatal(err)
			}
			writeOutcomes(&out, fmt.Sprintf("%s/pruned/k=3/masked=%t", l.name, masked), st)
		}

		store := map[string][]byte{}
		sectioned := []struct {
			tag  string
			spec Spec
			opts SectionedOpts
		}{
			{"uniform", Spec{Runs: 2000, Seed: 7, Workers: 3}, SectionedOpts{Table: l.table}},
			{"classes", pruned, SectionedOpts{Table: l.table,
				Persist: func(fp string, blob []byte) { store[fp] = blob }}},
			{"classes/recalled", pruned, SectionedOpts{Table: l.table,
				Recall: func(fp string) ([]byte, bool) { b, ok := store[fp]; return b, ok }}},
		}
		for _, c := range sectioned {
			res, err := RunSectioned(l.factory, c.spec, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("%s/sectioned/%s", l.name, c.tag)
			writeOutcomes(&out, tag, res.Stats)
			for _, r := range res.Sections {
				fmt.Fprintf(&out, "%s section %s %s sites=%d w=%016x recalled=%t pilots=%d sdc=%016x mass=%016x\n",
					tag, r.Name, r.Hash, r.Sites, math.Float64bits(r.Weight), r.Recalled, r.PilotRuns,
					math.Float64bits(r.SDC), math.Float64bits(r.SDCMass))
			}
		}

		spec := pruned
		spec.Masks = l.masks
		p, err := MaskedProbe(l.factory, spec, 64)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s/probe samples=%d benign=%d masked=%d/%d total=%d\n",
			l.name, p.Samples, p.Benign, p.MaskedSites, p.MaskedBits, p.TotalBits)
	}

	path := filepath.Join("testdata", "outcomes.golden")
	if *updateOutcomes {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("campaign outcomes drifted from %s:\n got:\n%s\nwant:\n%s", path, out.Bytes(), want)
	}
}

// TestSnapshotsOnOffReclog requires a full campaign on raw susan — where
// most runs are benign, so most fast-forwarded runs stop early on
// reconverging with the golden run — to write the same reclog bytes
// with snapshots auto-tuned and off, at both layers. It also requires
// the early exit to have fired. Like the outcome pin it skips under
// -short and -race; scripts/ci.sh runs it in a plain build.
func TestSnapshotsOnOffReclog(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs two full campaigns per layer")
	}
	layers := []struct {
		name    string
		factory EngineFactory
	}{
		{"ir", interpFactory(t, "susan")},
		{"asm", machineFactory(t, "susan", false)},
	}
	for _, l := range layers {
		var logs [2][]byte
		var stats [2]Stats
		reg := telemetry.New()
		for i, snap := range []int{0, SnapshotsOff} {
			var recs []Record
			spec := Spec{Runs: 1000, Seed: 3, Workers: 2, Snapshots: snap, Metrics: reg}
			spec.Records = func(r Record) { recs = append(recs, r) }
			st, err := Run(l.factory, spec)
			if err != nil {
				t.Fatal(err)
			}
			logs[i], stats[i] = reclogBytes(t, recs), st
		}
		if !bytes.Equal(logs[0], logs[1]) || !outcomeEqual(stats[0], stats[1]) {
			t.Fatalf("%s: snapshots on and off disagree:\n on  %v\n off %v", l.name, stats[0].Counts, stats[1].Counts)
		}
		conv := reg.Counter(`engine_converged_total{engine="` + l.name + `"}`).Value()
		if conv == 0 {
			t.Fatalf("%s: no run converged with the golden run", l.name)
		}
		t.Logf("%s: %d of %d runs converged, counts %v", l.name, conv, stats[0].Runs, stats[0].Counts)
	}
}
