package ir

import (
	"strings"
	"testing"
)

func TestParseAllConstructs(t *testing.T) {
	src := `
module everything

global @g 16 = 0102030405060708090a0b0c0d0e0f10
global @z 8

func @helper(i64 %a, f64 %b) f64 {
entry:
  %0 = sitofp %a to f64
  %1 = fadd f64 %0, %b
  ret %1
}

func @main() i64 {
entry:
  %0 = alloca 8
  store i64 -5, %0
  %1 = load i64, %0
  %2 = add i64 %1, i64 7
  %3 = sub i64 %2, i64 1
  %4 = mul i64 %3, i64 3
  %5 = sdiv i64 %4, i64 2
  %6 = srem i64 %5, i64 10
  %7 = and i64 %6, i64 255
  %8 = or i64 %7, i64 16
  %9 = xor i64 %8, i64 5
  %10 = shl i64 %9, i64 2
  %11 = ashr i64 %10, i64 1
  %12 = lshr i64 %11, i64 1
  %13 = gep @g, %12, 1
  %14 = load i8, %13
  %15 = sext %14 to i64
  %16 = trunc %15 to i32
  %17 = zext %16 to i64
  %18 = icmp slt %17, i64 100
  condbr %18, label %yes, label %no
yes:
  %19 = call f64 @helper(%17, f64 2.5)
  %20 = fcmp ogt %19, f64 0.0
  %21 = zext %20 to i64
  call void @print_i64(%21)
  br label %done
no:
  call void @print_i64(i64 -1)
  br label %done
done:
  ret i64 0
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if g := m.Global("g"); g == nil || g.Size != 16 || len(g.Init) != 16 {
		t.Fatalf("global g mishandled: %+v", g)
	}
	// Round-trip stability for the full construct set.
	m2 := MustParse(m.String())
	if m.String() != m2.String() {
		t.Fatal("full-construct module not print-stable")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no module header", "func @main() i64 {\nentry:\n  ret i64 0\n}\n", "module"},
		{"unknown op", "module m\nfunc @main() i64 {\nentry:\n  %0 = frobnicate i64 1, i64 2\n  ret i64 0\n}\n", "unknown opcode"},
		{"undefined value", "module m\nfunc @main() i64 {\nentry:\n  ret %7\n}\n", "undefined"},
		{"unknown global", "module m\nfunc @main() i64 {\nentry:\n  %0 = load i64, @nope\n  ret %0\n}\n", "unknown global"},
		{"unknown callee", "module m\nfunc @main() i64 {\nentry:\n  call void @nothere()\n  ret i64 0\n}\n", "unknown function"},
		{"duplicate function", "module m\nfunc @main() i64 {\nentry:\n  ret i64 0\n}\nfunc @main() i64 {\nentry:\n  ret i64 0\n}\n", "duplicate"},
		{"bad global initializer", "module m\nglobal @g 4 = zz\nfunc @main() i64 {\nentry:\n  ret i64 0\n}\n", "initializer"},
		{"unterminated function", "module m\nfunc @main() i64 {\nentry:\n  ret i64 0\n", "unterminated"},
		{"result id on void", "module m\nfunc @main() i64 {\nentry:\n  %0 = store i64 1, i64 2\n  ret i64 0\n}\n", "void"},
		// Truncated lines used to index past the end of the token list.
		{"alloca without size", "module 0\nfunc @()i64\n:\nalloca", "alloca"},
		{"call without callee", "module m\nfunc @main() i64 {\nentry:\n  call i64\n  ret i64 0\n}\n", "callee"},
		{"gep without element size", "module m\nfunc @main() i64 {\nentry:\n  %0 = gep i64 1, i64 2\n  ret i64 0\n}\n", "gep"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("parse accepted bad input")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestParseComments(t *testing.T) {
	src := `
module m ; trailing comment
; full-line comment
func @main() i64 {
entry:
  ret i64 42 ; the answer
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("comments broke the parser: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestParseForwardFunctionReference(t *testing.T) {
	src := `
module m
func @main() i64 {
entry:
  %0 = call i64 @later()
  ret %0
}
func @later() i64 {
entry:
  ret i64 9
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("forward reference: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}
