package interp_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"flowery/internal/bench"
	"flowery/internal/dup"
	"flowery/internal/interp"
)

// sameResult fails unless got equals want field for field.
func sameResult(t *testing.T, tag string, want, got interp.Result) {
	t.Helper()
	if want.Status != got.Status || want.Trap != got.Trap ||
		want.RetVal != got.RetVal ||
		want.DynInstrs != got.DynInstrs ||
		want.InjectableInstrs != got.InjectableInstrs ||
		want.Injected != got.Injected ||
		want.InjectedStatic != got.InjectedStatic {
		t.Fatalf("%s: result diverged:\nreference %+v\nfast      %+v", tag, want, got)
	}
	if !bytes.Equal(want.Output, got.Output) {
		t.Fatalf("%s: output diverged:\nreference %q\nfast      %q", tag, want.Output, got.Output)
	}
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
			ref, fast := interp.New(m), interp.New(m)
			golden := ref.Run(interp.Fault{}, interp.Options{Reference: true})
			fast.BuildSnapshots(max(golden.InjectableInstrs/64, 256), interp.Options{})

			rng := rand.New(rand.NewSource(1))
			converged := 0
			for i := 0; i < runs; i++ {
				f := interp.Fault{TargetIndex: 1 + rng.Int63n(golden.InjectableInstrs), Bit: rng.Intn(64)}
				want := ref.Run(f, interp.Options{Reference: true})
				got, _ := fast.RunFrom(f, interp.Options{})
				sameResult(t, fmt.Sprintf("%s protect=%v %+v", name, protect, f), want, got)
				if interp.ConvergedTail(fast) > 0 {
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
