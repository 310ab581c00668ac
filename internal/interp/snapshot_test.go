package interp

import (
	"bytes"
	"testing"

	"flowery/internal/bench"
)

func sameResult(t *testing.T, tag string, want, got Result) {
	t.Helper()
	if want.Status != got.Status || want.Trap != got.Trap ||
		want.RetVal != got.RetVal ||
		want.DynInstrs != got.DynInstrs ||
		want.InjectableInstrs != got.InjectableInstrs ||
		want.Injected != got.Injected ||
		want.InjectedStatic != got.InjectedStatic {
		t.Fatalf("%s: result diverged:\nscratch %+v\nrestore %+v", tag, want, got)
	}
	if !bytes.Equal(want.Output, got.Output) {
		t.Fatalf("%s: output diverged:\nscratch %q\nrestore %q", tag, want.Output, got.Output)
	}
}

// TestSnapshotEquivalence: for faults sampled across the injectable
// range, a snapshot-restored run must be bit-identical to a from-scratch
// run. quicksort exercises recursion, so snapshots capture multi-frame
// call stacks.
func TestSnapshotEquivalence(t *testing.T) {
	for _, name := range []string{"bfs", "quicksort", "fft2"} {
		bm, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		m := bm.Build()
		scratch := New(m)
		snap := New(m)

		golden := snap.BuildSnapshots(977, Options{})
		if golden.Status != StatusOK {
			t.Fatalf("%s: golden failed: %v", name, golden.Status)
		}
		if len(snap.snaps) == 0 {
			t.Fatalf("%s: no snapshots captured", name)
		}

		inj := golden.InjectableInstrs
		var restoredSome bool
		for i := int64(0); i < 60; i++ {
			fault := Fault{TargetIndex: 1 + i*inj/60, Bit: int(i * 11 % 64)}
			want := scratch.Run(fault, Options{})
			got, skipped := snap.RunFrom(fault, Options{})
			sameResult(t, name, want, got)
			if skipped > 0 {
				restoredSome = true
			}
		}
		if !restoredSome {
			t.Fatalf("%s: no run used a snapshot", name)
		}
	}
}

// TestSnapshotDeepStack pins the frame capture on a snapshot taken deep
// inside recursion: every checkpoint of a quicksort golden run restores
// to a state that finishes with the golden output.
func TestSnapshotDeepStack(t *testing.T) {
	bm, _ := bench.ByName("quicksort")
	m := bm.Build()
	ip := New(m)
	if res := ip.BuildSnapshots(499, Options{}); res.Status != StatusOK {
		t.Fatalf("golden failed: %v", res.Status)
	}
	maxFrames := 0
	for i := range ip.snaps {
		if n := len(ip.snaps[i].frames); n > maxFrames {
			maxFrames = n
		}
	}
	if maxFrames < 2 {
		t.Fatalf("no snapshot captured inside a call (max %d frames)", maxFrames)
	}
	for i := range ip.snaps {
		target := ip.snaps[i].index + 1
		// Flip bit 0 of the first value defined after snapshot i: the
		// run must restore exactly snapshot i and then match a scratch
		// run, whether the flip propagates or the run reconverges with
		// the golden run (convTail, the golden tail it did not execute,
		// is the rest of skipped).
		res, skipped := ip.RunFrom(Fault{TargetIndex: target, Bit: 0}, Options{})
		if restored := skipped - ip.convTail; restored != ip.snaps[i].steps {
			t.Fatalf("snapshot %d: restored %d steps, want %d", i, restored, ip.snaps[i].steps)
		}
		scratch := New(m).Run(Fault{TargetIndex: target, Bit: 0}, Options{})
		sameResult(t, "deep", scratch, res)
	}
}

// TestSnapshotProfileFallback: profiled runs bypass snapshots (profile
// counts must cover the whole run).
func TestSnapshotProfileFallback(t *testing.T) {
	bm, _ := bench.ByName("bfs")
	m := bm.Build()
	ip := New(m)
	golden := ip.BuildSnapshots(1024, Options{})
	_, skipped := ip.RunFrom(Fault{TargetIndex: golden.InjectableInstrs / 2, Bit: 1}, Options{Profile: true})
	if skipped != 0 {
		t.Fatalf("profiled run used a snapshot")
	}
	if got := ip.ProfileCounts(); got == nil {
		t.Fatalf("profiled run produced no counts")
	}
}
