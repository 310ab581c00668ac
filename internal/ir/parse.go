package ir

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Parse reads a module from the textual format produced by Module.String.
//
// Grammar (one construct per line; ';' starts a comment):
//
//	module <name>
//	global @<name> <size> [= <hexbytes>]
//	func @<name>(<type> %<param>, ...) <type> {
//	<label>:
//	  [%<n> =] <op> ... [; <prot>[,<prot>...]]
//	}
//
// Operands are %<n> (instruction results), %<name> (parameters),
// @<name> (globals), or <type> <literal> (constants). An instruction's
// trailing comment is its protection annotation when it lists only the
// flags dup, checker and flowery (ProtMeta.IsDup, IsChecker,
// IsFlowery), exactly as Instr.String prints them; any other comment is
// ignored. A duplicate's flag may name its primary copy, dup=%<n>: the
// parser then restores the Orig/Dup link and makes the duplicate share
// the primary's constant operands, as the duplication pass built them.
// Constant identity matters downstream: the backend's register cache
// reuses a register for the same constant within a block.
func Parse(src string) (*Module, error) {
	p := &parser{lines: strings.Split(src, "\n")}
	m, err := p.parseModule()
	if err != nil {
		return nil, fmt.Errorf("line %d: %w", p.pos+1, err)
	}
	return m, nil
}

// MustParse is Parse that panics on error; for tests and examples.
func MustParse(src string) *Module {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

type parser struct {
	lines []string
	pos   int
}

// stripComment drops a line's comment and surrounding space.
func stripComment(ln string) string {
	if i := strings.IndexByte(ln, ';'); i >= 0 {
		ln = ln[:i]
	}
	return strings.TrimSpace(ln)
}

// isLabel reports whether a stripped line is a block label.
func isLabel(ln string) bool {
	return strings.HasSuffix(ln, ":") && !strings.ContainsAny(ln, " \t=")
}

func (p *parser) next() (string, bool) {
	for p.pos < len(p.lines) {
		ln := stripComment(p.lines[p.pos])
		if ln == "" {
			p.pos++
			continue
		}
		return ln, true
	}
	return "", false
}

func (p *parser) advance() { p.pos++ }

// parseProt reads the protection annotation from an instruction line's
// trailing comment, with the result id of the primary copy a duplicate
// names (-1 if none); a comment that is not an annotation yields none.
func parseProt(line string) (ProtMeta, int) {
	i := strings.IndexByte(line, ';')
	if i < 0 {
		return ProtMeta{}, -1
	}
	var pm ProtMeta
	orig := -1
	for _, flag := range strings.Split(strings.TrimSpace(line[i+1:]), ",") {
		switch {
		case flag == "dup":
			pm.IsDup = true
		case strings.HasPrefix(flag, "dup=%"):
			n, err := strconv.Atoi(flag[len("dup=%"):])
			if err != nil || n < 0 {
				return ProtMeta{}, -1
			}
			pm.IsDup, orig = true, n
		case flag == "checker":
			pm.IsChecker = true
		case flag == "flowery":
			pm.IsFlowery = true
		default:
			return ProtMeta{}, -1
		}
	}
	return pm, orig
}

func (p *parser) parseModule() (*Module, error) {
	ln, ok := p.next()
	if !ok || !strings.HasPrefix(ln, "module ") {
		return nil, fmt.Errorf("expected 'module <name>'")
	}
	m := NewModule(strings.TrimSpace(strings.TrimPrefix(ln, "module ")))
	p.advance()

	// First pass over the source to pre-declare functions, so calls can
	// reference functions defined later.
	if err := p.predeclare(m); err != nil {
		return nil, err
	}

	for {
		ln, ok := p.next()
		if !ok {
			break
		}
		switch {
		case strings.HasPrefix(ln, "global "):
			if err := parseGlobal(m, ln); err != nil {
				return nil, err
			}
			p.advance()
		case strings.HasPrefix(ln, "func "):
			if err := p.parseFunc(m, ln); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("unexpected line %q", ln)
		}
	}
	return m, nil
}

// predeclare scans ahead for func headers and registers empty functions.
func (p *parser) predeclare(m *Module) error {
	for _, raw := range p.lines[p.pos:] {
		ln := strings.TrimSpace(raw)
		if !strings.HasPrefix(ln, "func ") {
			continue
		}
		name, params, ret, err := parseFuncHeader(ln)
		if err != nil {
			return err
		}
		if m.Func(name) != nil {
			return fmt.Errorf("duplicate function @%s", name)
		}
		f := &Function{Name: name, RetType: ret}
		for i, pr := range params {
			f.Params = append(f.Params, &Param{Func: f, Index: i, Name: pr.name, Ty: pr.ty})
		}
		m.AddFunction(f)
	}
	return nil
}

func parseGlobal(m *Module, ln string) error {
	// global @name size [= hexbytes]
	rest := strings.TrimPrefix(ln, "global ")
	fields := strings.Fields(rest)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "@") {
		return fmt.Errorf("malformed global %q", ln)
	}
	name := fields[0][1:]
	size, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return fmt.Errorf("global @%s: bad size: %w", name, err)
	}
	var init []byte
	if len(fields) >= 4 && fields[2] == "=" {
		init, err = hex.DecodeString(fields[3])
		if err != nil {
			return fmt.Errorf("global @%s: bad initializer: %w", name, err)
		}
	}
	if m.Global(name) != nil {
		return fmt.Errorf("duplicate global @%s", name)
	}
	g := m.addGlobal(&Global{Name: name, Size: size, Init: init})
	_ = g
	return nil
}

type paramDecl struct {
	name string
	ty   Type
}

func parseFuncHeader(ln string) (name string, params []paramDecl, ret Type, err error) {
	// func @name(ty %p, ...) ret {
	rest := strings.TrimPrefix(ln, "func ")
	open := strings.IndexByte(rest, '(')
	closeP := strings.LastIndexByte(rest, ')')
	if open < 0 || closeP < open || !strings.HasPrefix(rest, "@") {
		return "", nil, Void, fmt.Errorf("malformed func header %q", ln)
	}
	name = rest[1:open]
	paramsStr := rest[open+1 : closeP]
	tail := strings.TrimSpace(rest[closeP+1:])
	tail = strings.TrimSuffix(tail, "{")
	retStr := strings.TrimSpace(tail)
	ret, ok := TypeFromString(retStr)
	if !ok {
		return "", nil, Void, fmt.Errorf("bad return type %q", retStr)
	}
	if strings.TrimSpace(paramsStr) != "" {
		for _, ps := range strings.Split(paramsStr, ",") {
			fields := strings.Fields(strings.TrimSpace(ps))
			if len(fields) != 2 || !strings.HasPrefix(fields[1], "%") {
				return "", nil, Void, fmt.Errorf("bad parameter %q", ps)
			}
			pt, ok := TypeFromString(fields[0])
			if !ok {
				return "", nil, Void, fmt.Errorf("bad parameter type %q", fields[0])
			}
			params = append(params, paramDecl{name: fields[1][1:], ty: pt})
		}
	}
	return name, params, ret, nil
}

// pendingRef records an operand slot that needs an instruction result
// resolved after the whole body has been read.
type pendingRef struct {
	in  *Instr
	arg int
	id  int
}

func (p *parser) parseFunc(m *Module, header string) error {
	name, _, _, err := parseFuncHeader(header)
	if err != nil {
		return err
	}
	f := m.Func(name)
	p.advance()

	blocks := make(map[string]*Block)
	getBlock := func(n string) *Block {
		if b, ok := blocks[n]; ok {
			return b
		}
		b := f.NewBlock(n)
		blocks[n] = b
		return b
	}
	params := make(map[string]*Param)
	for _, pr := range f.Params {
		params[pr.Name] = pr
	}

	// Create blocks in label order before any branch can name one, so
	// the block layout (and with it instruction numbering and the
	// lowered code order) survives the round trip.
	for i := p.pos; i < len(p.lines); i++ {
		ln := stripComment(p.lines[i])
		if ln == "}" {
			break
		}
		if isLabel(ln) {
			getBlock(strings.TrimSuffix(ln, ":"))
		}
	}

	byID := make(map[int]*Instr)
	var pending []pendingRef
	var dups []dupRef
	var cur *Block

	for {
		ln, ok := p.next()
		if !ok {
			return fmt.Errorf("unterminated function @%s", name)
		}
		if ln == "}" {
			p.advance()
			break
		}
		if isLabel(ln) {
			cur = getBlock(strings.TrimSuffix(ln, ":"))
			p.advance()
			continue
		}
		if cur == nil {
			return fmt.Errorf("instruction before first label in @%s", name)
		}
		in, id, refs, err := parseInstr(m, f, params, getBlock, ln)
		if err != nil {
			return fmt.Errorf("in @%s: %w", name, err)
		}
		var orig int
		in.Prot, orig = parseProt(p.lines[p.pos])
		if orig >= 0 {
			dups = append(dups, dupRef{in, orig})
		}
		cur.Append(in)
		if id >= 0 {
			byID[id] = in
		}
		for _, r := range refs {
			r.in = in
			pending = append(pending, r)
		}
		p.advance()
	}

	for _, r := range pending {
		def, ok := byID[r.id]
		if !ok {
			return fmt.Errorf("@%s: reference to undefined %%%d", name, r.id)
		}
		r.in.Args[r.arg] = def
	}
	for _, d := range dups {
		orig, ok := byID[d.orig]
		if !ok {
			return fmt.Errorf("@%s: duplicate of undefined %%%d", name, d.orig)
		}
		d.in.Prot.Orig = orig
		orig.Prot.Dup = d.in
		for i, a := range d.in.Args {
			c, ok := a.(*Const)
			if !ok || i >= len(orig.Args) {
				continue
			}
			if oc, ok := orig.Args[i].(*Const); ok && *oc == *c {
				d.in.Args[i] = oc
			}
		}
	}
	f.Renumber()
	return nil
}

// dupRef is a parsed duplicate awaiting the link to its primary copy.
type dupRef struct {
	in   *Instr
	orig int
}

// parseInstr parses one instruction line. Operand slots referencing %N
// instruction results are returned as pendingRefs with in==nil (filled by
// the caller) and a placeholder operand.
func parseInstr(m *Module, f *Function, params map[string]*Param, getBlock func(string) *Block, ln string) (*Instr, int, []pendingRef, error) {
	id := -1
	if strings.HasPrefix(ln, "%") {
		eq := strings.Index(ln, " = ")
		if eq < 0 {
			return nil, 0, nil, fmt.Errorf("malformed instruction %q", ln)
		}
		n, err := strconv.Atoi(ln[1:eq])
		if err != nil {
			return nil, 0, nil, fmt.Errorf("bad result id in %q", ln)
		}
		id = n
		ln = ln[eq+3:]
	}
	fields := tokenize(ln)
	if len(fields) == 0 {
		return nil, 0, nil, fmt.Errorf("empty instruction")
	}
	opName := fields[0]
	rest := fields[1:]
	// tok reads token i of rest, "" past the end: every parse below then
	// rejects a truncated line with an error instead of indexing out of
	// range.
	tok := func(i int) string {
		if i < len(rest) {
			return rest[i]
		}
		return ""
	}

	var refs []pendingRef
	// operand parses one operand from tokens, consuming 1 or 2 tokens.
	operand := func(toks []string, argIdx int) (Value, int, error) {
		if len(toks) == 0 {
			return nil, 0, fmt.Errorf("missing operand")
		}
		t := toks[0]
		switch {
		case strings.HasPrefix(t, "%"):
			nm := t[1:]
			if n, err := strconv.Atoi(nm); err == nil {
				refs = append(refs, pendingRef{arg: argIdx, id: n})
				// Placeholder; replaced in resolution pass.
				return ConstInt(I64, 0), 1, nil
			}
			if pr, ok := params[nm]; ok {
				return pr, 1, nil
			}
			return nil, 0, fmt.Errorf("unknown value %%%s", nm)
		case strings.HasPrefix(t, "@"):
			g := m.Global(t[1:])
			if g == nil {
				return nil, 0, fmt.Errorf("unknown global %s", t)
			}
			return g, 1, nil
		default:
			ty, ok := TypeFromString(t)
			if !ok {
				return nil, 0, fmt.Errorf("bad operand %q", t)
			}
			if len(toks) < 2 {
				return nil, 0, fmt.Errorf("constant %s missing literal", t)
			}
			lit := toks[1]
			if ty == F64 {
				fv, err := strconv.ParseFloat(lit, 64)
				if err != nil {
					return nil, 0, fmt.Errorf("bad float literal %q", lit)
				}
				return ConstFloat(fv), 2, nil
			}
			iv, err := strconv.ParseInt(lit, 10, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("bad int literal %q", lit)
			}
			return ConstInt(ty, iv), 2, nil
		}
	}

	in := &Instr{ID: -1}
	switch opName {
	case "alloca":
		sz, err := strconv.ParseInt(tok(0), 10, 64)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("bad alloca size")
		}
		in.Op, in.Ty, in.Aux = OpAlloca, Ptr, sz
	case "load":
		ty, ok := TypeFromString(tok(0))
		if !ok {
			return nil, 0, nil, fmt.Errorf("bad load type %q", tok(0))
		}
		v, _, err := operand(rest[1:], 0)
		if err != nil {
			return nil, 0, nil, err
		}
		in.Op, in.Ty, in.Args = OpLoad, ty, []Value{v}
	case "store":
		v0, nTok, err := operand(rest, 0)
		if err != nil {
			return nil, 0, nil, err
		}
		v1, _, err := operand(rest[nTok:], 1)
		if err != nil {
			return nil, 0, nil, err
		}
		in.Op, in.Ty, in.Args = OpStore, Void, []Value{v0, v1}
	case "icmp", "fcmp":
		pred, ok := PredFromString(tok(0))
		if !ok {
			return nil, 0, nil, fmt.Errorf("bad predicate %q", tok(0))
		}
		v0, nTok, err := operand(rest[1:], 0)
		if err != nil {
			return nil, 0, nil, err
		}
		v1, _, err := operand(rest[1+nTok:], 1)
		if err != nil {
			return nil, 0, nil, err
		}
		op := OpICmp
		if opName == "fcmp" {
			op = OpFCmp
		}
		in.Op, in.Ty, in.Pred, in.Args = op, I1, pred, []Value{v0, v1}
	case "gep":
		v0, nTok, err := operand(rest, 0)
		if err != nil {
			return nil, 0, nil, err
		}
		v1, nTok2, err := operand(rest[nTok:], 1)
		if err != nil {
			return nil, 0, nil, err
		}
		sz, err := strconv.ParseInt(tok(nTok+nTok2), 10, 64)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("bad gep element size")
		}
		in.Op, in.Ty, in.Aux, in.Args = OpGEP, Ptr, sz, []Value{v0, v1}
	case "trunc", "zext", "sext", "sitofp", "fptosi":
		op, _ := OpFromString(opName)
		v, nTok, err := operand(rest, 0)
		if err != nil {
			return nil, 0, nil, err
		}
		if len(rest) < nTok+2 || rest[nTok] != "to" {
			return nil, 0, nil, fmt.Errorf("%s missing 'to <type>'", opName)
		}
		ty, ok := TypeFromString(rest[nTok+1])
		if !ok {
			return nil, 0, nil, fmt.Errorf("bad cast target %q", rest[nTok+1])
		}
		in.Op, in.Ty, in.Args = op, ty, []Value{v}
	case "call":
		ty, ok := TypeFromString(tok(0))
		if !ok {
			return nil, 0, nil, fmt.Errorf("bad call type %q", tok(0))
		}
		if !strings.HasPrefix(tok(1), "@") {
			return nil, 0, nil, fmt.Errorf("bad callee %q", tok(1))
		}
		callee := m.Func(rest[1][1:])
		if callee == nil {
			return nil, 0, nil, fmt.Errorf("unknown function %s", rest[1])
		}
		var args []Value
		toks := rest[2:]
		for len(toks) > 0 {
			v, nTok, err := operand(toks, len(args))
			if err != nil {
				return nil, 0, nil, err
			}
			args = append(args, v)
			toks = toks[nTok:]
		}
		in.Op, in.Ty, in.Callee, in.Args = OpCall, ty, callee, args
	case "br":
		if len(rest) != 2 || tok(0) != "label" {
			return nil, 0, nil, fmt.Errorf("malformed br")
		}
		in.Op, in.Ty, in.Blocks = OpBr, Void, []*Block{getBlock(strings.TrimPrefix(rest[1], "%"))}
	case "condbr":
		v, nTok, err := operand(rest, 0)
		if err != nil {
			return nil, 0, nil, err
		}
		toks := rest[nTok:]
		if len(toks) != 4 || toks[0] != "label" || toks[2] != "label" {
			return nil, 0, nil, fmt.Errorf("malformed condbr")
		}
		in.Op, in.Ty = OpCondBr, Void
		in.Args = []Value{v}
		in.Blocks = []*Block{
			getBlock(strings.TrimPrefix(toks[1], "%")),
			getBlock(strings.TrimPrefix(toks[3], "%")),
		}
	case "ret":
		in.Op, in.Ty = OpRet, Void
		if len(rest) > 0 {
			v, _, err := operand(rest, 0)
			if err != nil {
				return nil, 0, nil, err
			}
			in.Args = []Value{v}
		}
	default:
		op, ok := OpFromString(opName)
		if !ok || !op.IsBinOp() {
			return nil, 0, nil, fmt.Errorf("unknown opcode %q", opName)
		}
		ty, ok := TypeFromString(tok(0))
		if !ok {
			return nil, 0, nil, fmt.Errorf("bad %s type %q", opName, tok(0))
		}
		v0, nTok, err := operand(rest[1:], 0)
		if err != nil {
			return nil, 0, nil, err
		}
		v1, _, err := operand(rest[1+nTok:], 1)
		if err != nil {
			return nil, 0, nil, err
		}
		in.Op, in.Ty, in.Args = op, ty, []Value{v0, v1}
	}
	if id >= 0 && in.Ty == Void {
		return nil, 0, nil, fmt.Errorf("void instruction %q cannot have a result id", opName)
	}
	return in, id, refs, nil
}

// tokenize splits an instruction line into tokens, treating commas and
// parentheses as separators.
func tokenize(s string) []string {
	s = strings.NewReplacer(",", " ", "(", " ", ")", " ").Replace(s)
	return strings.Fields(s)
}
