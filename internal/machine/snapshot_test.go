package machine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"flowery/internal/backend"
	"flowery/internal/bench"
	"flowery/internal/dup"
	"flowery/internal/ir"
	"flowery/internal/sim"
)

// buildMachines links n machines against one lowering of m (Lower may
// only run once per module).
func buildMachines(t *testing.T, m *ir.Module, n int) []*Machine {
	t.Helper()
	prog, err := backend.Lower(m)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Machine, n)
	for i := range out {
		mc, err := New(m, prog)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = mc
	}
	return out
}

func sameResult(t *testing.T, tag string, want, got sim.Result) {
	t.Helper()
	if want.Status != got.Status || want.Trap != got.Trap ||
		want.RetVal != got.RetVal ||
		want.DynInstrs != got.DynInstrs ||
		want.InjectableInstrs != got.InjectableInstrs ||
		want.Injected != got.Injected ||
		want.InjectedStatic != got.InjectedStatic ||
		want.InjectedOrigin != got.InjectedOrigin ||
		want.InjectedChecker != got.InjectedChecker {
		t.Fatalf("%s: result diverged:\nscratch %+v\nrestore %+v", tag, want, got)
	}
	if !bytes.Equal(want.Output, got.Output) {
		t.Fatalf("%s: output diverged:\nscratch %q\nrestore %q", tag, want.Output, got.Output)
	}
}

// TestSnapshotEquivalence: for faults sampled across the injectable
// range, a snapshot-restored run must be bit-identical to a from-scratch
// run — on raw and on duplication-protected programs (the latter
// exercises the detected path).
func TestSnapshotEquivalence(t *testing.T) {
	for _, name := range []string{"bfs", "quicksort", "fft2"} {
		for _, protect := range []bool{false, true} {
			bm, ok := bench.ByName(name)
			if !ok {
				t.Fatalf("unknown benchmark %q", name)
			}
			m := bm.Build()
			if protect {
				if err := dup.ApplyFull(m); err != nil {
					t.Fatal(err)
				}
			}
			ms := buildMachines(t, m, 2)
			scratch, snap := ms[0], ms[1]

			golden := snap.BuildSnapshots(977, sim.Options{})
			if golden.Status != sim.StatusOK {
				t.Fatalf("%s: golden failed: %v", name, golden.Status)
			}
			if len(snap.snaps) == 0 {
				t.Fatalf("%s: no snapshots captured", name)
			}

			inj := golden.InjectableInstrs
			var restoredSome bool
			for i := int64(0); i < 60; i++ {
				fault := sim.Fault{TargetIndex: 1 + i*inj/60, Bit: int(i * 7 % 64)}
				want := scratch.Run(fault, sim.Options{})
				got, skipped := snap.RunFrom(fault, sim.Options{})
				sameResult(t, name, want, got)
				if skipped > 0 {
					restoredSome = true
					if skipped >= want.DynInstrs {
						t.Fatalf("%s: skipped %d of a %d-instr run", name, skipped, want.DynInstrs)
					}
				}
			}
			if !restoredSome {
				t.Fatalf("%s: no run used a snapshot", name)
			}
		}
	}
}

// TestSnapshotFallbacks: golden faults and targets before the first
// checkpoint run from scratch and still agree with Run.
func TestSnapshotFallbacks(t *testing.T) {
	bm, _ := bench.ByName("bfs")
	m := bm.Build()
	ms := buildMachines(t, m, 2)
	scratch, snap := ms[0], ms[1]
	golden := snap.BuildSnapshots(2048, sim.Options{})

	res, skipped := snap.RunFrom(sim.Fault{}, sim.Options{})
	if skipped != 0 {
		t.Fatalf("golden RunFrom used a snapshot (skipped %d)", skipped)
	}
	sameResult(t, "golden", golden, res)

	early := sim.Fault{TargetIndex: 1, Bit: 3}
	want := scratch.Run(early, sim.Options{})
	got, skipped := snap.RunFrom(early, sim.Options{})
	if skipped != 0 {
		t.Fatalf("target before first checkpoint used a snapshot")
	}
	sameResult(t, "early", want, got)

	// Without snapshots RunFrom degrades to Run entirely.
	snap.DropSnapshots()
	late := sim.Fault{TargetIndex: golden.InjectableInstrs - 1, Bit: 5}
	want = scratch.Run(late, sim.Options{})
	got, skipped = snap.RunFrom(late, sim.Options{})
	if skipped != 0 {
		t.Fatalf("dropped snapshots still used")
	}
	sameResult(t, "late", want, got)
}

// TestConvergenceExact: a fast-core RunFrom that may stop early on
// reconverging with the golden run must still equal a reference-core
// scratch Run field for field, on raw and protected programs. The test
// also requires the early exit to fire, so it cannot silently stop
// working.
func TestConvergenceExact(t *testing.T) {
	const runs = 200
	for _, name := range []string{"crc32", "susan"} {
		for _, protect := range []bool{false, true} {
			bm, _ := bench.ByName(name)
			m := bm.Build()
			if protect {
				if err := dup.ApplyFull(m); err != nil {
					t.Fatal(err)
				}
			}
			ms := buildMachines(t, m, 2)
			ref, fast := ms[0], ms[1]
			golden := ref.Run(sim.Fault{}, sim.Options{Reference: true})
			fast.BuildSnapshots(max(golden.InjectableInstrs/64, 256), sim.Options{})

			rng := rand.New(rand.NewSource(1))
			converged := 0
			for i := 0; i < runs; i++ {
				f := sim.Fault{TargetIndex: 1 + rng.Int63n(golden.InjectableInstrs), Bit: rng.Intn(64)}
				want := ref.Run(f, sim.Options{Reference: true})
				got, _ := fast.RunFrom(f, sim.Options{})
				sameResult(t, fmt.Sprintf("%s protect=%v %+v", name, protect, f), want, got)
				if fast.convTail > 0 {
					converged++
				}
			}
			if converged == 0 {
				t.Fatalf("%s protect=%v: no run converged with the golden run", name, protect)
			}
			t.Logf("%s protect=%v: %d of %d runs converged", name, protect, converged, runs)
		}
	}
}
