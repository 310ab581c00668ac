package ir_test

import (
	"testing"

	"flowery/internal/backend"
	"flowery/internal/bench"
	"flowery/internal/dup"
	"flowery/internal/flowery"
	"flowery/internal/ir"
)

// TestPrintParseRoundTrip requires Parse(m.String()) to reproduce m: the
// same text, the same protection flags and duplicate links on every
// instruction, and the same lowered assembly. Shard workers rebuild
// campaign modules from this text, so anything lost here changes how a
// protected program lowers and what its faults do.
func TestPrintParseRoundTrip(t *testing.T) {
	type input struct {
		name string
		m    *ir.Module
	}
	wf := ir.WellFormed()
	wf.NewGlobalI64("data", []int64{1, -2, 3})
	wf.NewGlobalData("raw", []byte{0xde, 0xad})
	inputs := []input{{"wellformed", wf}}
	for _, b := range bench.All() {
		m := b.Build()
		if err := dup.ApplyFull(m); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		inputs = append(inputs, input{b.Name + "/dup", m})
		fm := b.Build()
		if err := dup.ApplyFull(fm); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if _, err := flowery.Apply(fm, flowery.All()); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		inputs = append(inputs, input{b.Name + "/flowery", fm})
	}

	var seen ir.ProtMeta
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			if err := in.m.Verify(); err != nil {
				t.Fatal(err)
			}
			text1 := in.m.String()
			m2, err := ir.Parse(text1)
			if err != nil {
				t.Fatalf("parse: %v\n%s", err, text1)
			}
			if err := m2.Verify(); err != nil {
				t.Fatalf("reparsed module invalid: %v", err)
			}
			if text2 := m2.String(); text1 != text2 {
				t.Fatalf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
			}
			twin := map[*ir.Instr]*ir.Instr{}
			for fi, f := range in.m.Funcs {
				for bi, b := range f.Blocks {
					for ii, ins := range b.Instrs {
						twin[ins] = m2.Funcs[fi].Blocks[bi].Instrs[ii]
					}
				}
			}
			for ins, got := range twin {
				want := flags(ins.Prot)
				if g := flags(got.Prot); g != want {
					t.Fatalf("%s: prot %+v after reparse, want %+v", ins, g, want)
				}
				if o := ins.Prot.Orig; o != nil && got.Prot.Orig != twin[o] {
					t.Fatalf("%s: duplicate of %v after reparse, want %s", ins, got.Prot.Orig, o)
				}
				seen.IsDup = seen.IsDup || want.IsDup
				seen.IsChecker = seen.IsChecker || want.IsChecker
				seen.IsFlowery = seen.IsFlowery || want.IsFlowery
			}
			want, err := backend.Lower(ir.CloneModule(in.m))
			if err != nil {
				t.Fatal(err)
			}
			got, err := backend.Lower(m2)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatal("reparsed module lowers to different assembly")
			}
		})
	}
	if !seen.IsDup || !seen.IsChecker || !seen.IsFlowery {
		t.Fatalf("inputs exercise prot flags %+v; want all three", seen)
	}
}

// flags is the printable part of ProtMeta (the Orig/Dup links are not
// part of the text form).
func flags(p ir.ProtMeta) ir.ProtMeta {
	return ir.ProtMeta{IsDup: p.IsDup, IsChecker: p.IsChecker, IsFlowery: p.IsFlowery}
}
