package ir

import (
	"fmt"
	"strings"
)

// String renders the module in the textual IR format understood by Parse.
// The format is LLVM-flavoured but simplified; see parse.go for the
// grammar.
func (m *Module) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module %s\n\n", m.Name)
	for _, g := range m.Globals {
		printGlobal(&sb, g)
	}
	if len(m.Globals) > 0 {
		sb.WriteByte('\n')
	}
	for _, f := range m.Funcs {
		if f.External {
			continue
		}
		printFunc(&sb, f)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func printGlobal(sb *strings.Builder, g *Global) {
	fmt.Fprintf(sb, "global @%s %d", g.Name, g.Size)
	if len(g.Init) > 0 {
		sb.WriteString(" = ")
		for _, b := range g.Init {
			fmt.Fprintf(sb, "%02x", b)
		}
	}
	sb.WriteByte('\n')
}

func printFunc(sb *strings.Builder, f *Function) {
	f.Renumber()
	fmt.Fprintf(sb, "func @%s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, "%s %%%s", p.Ty, p.Name)
	}
	fmt.Fprintf(sb, ") %s {\n", f.RetType)
	for _, b := range f.Blocks {
		fmt.Fprintf(sb, "%s:\n", b.Name)
		for _, in := range b.Instrs {
			sb.WriteString("  ")
			sb.WriteString(in.String())
			sb.WriteByte('\n')
		}
	}
	sb.WriteString("}\n")
}

// String renders a single instruction in textual form. The containing
// function must have been renumbered for operand names to be stable.
func (in *Instr) String() string {
	var sb strings.Builder
	if in.HasResult() {
		fmt.Fprintf(&sb, "%s = ", in.OperandString())
	}
	switch in.Op {
	case OpAlloca:
		fmt.Fprintf(&sb, "alloca %d", in.Aux)
	case OpLoad:
		fmt.Fprintf(&sb, "load %s, %s", in.Ty, in.Args[0].OperandString())
	case OpStore:
		fmt.Fprintf(&sb, "store %s, %s", in.Args[0].OperandString(), in.Args[1].OperandString())
	case OpICmp, OpFCmp:
		fmt.Fprintf(&sb, "%s %s %s, %s", in.Op, in.Pred, in.Args[0].OperandString(), in.Args[1].OperandString())
	case OpGEP:
		fmt.Fprintf(&sb, "gep %s, %s, %d", in.Args[0].OperandString(), in.Args[1].OperandString(), in.Aux)
	case OpTrunc, OpZExt, OpSExt, OpSIToFP, OpFPToSI:
		fmt.Fprintf(&sb, "%s %s to %s", in.Op, in.Args[0].OperandString(), in.Ty)
	case OpCall:
		fmt.Fprintf(&sb, "call %s @%s(", in.Ty, in.Callee.Name)
		for i, a := range in.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.OperandString())
		}
		sb.WriteByte(')')
	case OpBr:
		fmt.Fprintf(&sb, "br label %%%s", in.Blocks[0].Name)
	case OpCondBr:
		fmt.Fprintf(&sb, "condbr %s, label %%%s, label %%%s",
			in.Args[0].OperandString(), in.Blocks[0].Name, in.Blocks[1].Name)
	case OpRet:
		if len(in.Args) == 1 {
			fmt.Fprintf(&sb, "ret %s", in.Args[0].OperandString())
		} else {
			sb.WriteString("ret")
		}
	default:
		if in.Op.IsBinOp() {
			fmt.Fprintf(&sb, "%s %s %s, %s", in.Op, in.Ty, in.Args[0].OperandString(), in.Args[1].OperandString())
		} else {
			fmt.Fprintf(&sb, "%s ???", in.Op)
		}
	}
	// Protection flags print as a trailing annotation comment, which
	// Parse reads back (see its grammar), so passes like the backend's
	// checker lowering behave the same on a reparsed module.
	var notes []string
	if in.Prot.IsDup {
		// A duplicate names its primary copy, so the parser can restore
		// the Orig/Dup link and the constant operands the two share.
		if o := in.Prot.Orig; o != nil && o.ID >= 0 && o.Parent != nil && in.Parent != nil && o.Parent.Func == in.Parent.Func {
			notes = append(notes, "dup="+o.OperandString())
		} else {
			notes = append(notes, "dup")
		}
	}
	if in.Prot.IsChecker {
		notes = append(notes, "checker")
	}
	if in.Prot.IsFlowery {
		notes = append(notes, "flowery")
	}
	if len(notes) > 0 {
		fmt.Fprintf(&sb, "  ; %s", strings.Join(notes, ","))
	}
	return sb.String()
}
