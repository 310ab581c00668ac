package ir

import (
	"fmt"
	"sort"
)

// Memory layout constants shared by the IR interpreter and the assembly
// simulator so addresses mean the same thing at both layers. The address
// space is a flat little-endian byte array; address 0 is never mapped so
// nil-pointer dereferences trap.
// Addresses below GlobalBase, between the end of the data segment and
// StackLimit, and at or above StackTop are unmapped: accessing them traps,
// which is how corrupted pointers turn into DUEs (segmentation faults)
// rather than silent corruption.
const (
	// GlobalBase is the address of the first global.
	GlobalBase = 0x1000
	// StackTop is the initial stack pointer; frames grow downward.
	StackTop = 0x20_0000
	// StackLimit is the lowest legal stack address; crossing it traps
	// (stack overflow → DUE).
	StackLimit = 0x1c_0000
	// MemSize is the total size of the simulated address space.
	MemSize = StackTop
)

// Module is a translation unit: functions plus global data.
type Module struct {
	Name    string
	Funcs   []*Function
	Globals []*Global

	funcByName   map[string]*Function
	globalByName map[string]*Global

	// addrEnd memoizes AssignAddresses (0 = not yet assigned). Adding a
	// global invalidates it. The memo makes repeated engine construction
	// on a shared module read-only after the first assignment, so modules
	// cached by the artifact pipeline can back concurrent campaigns.
	addrEnd int64
}

// NewModule returns an empty module with the standard runtime functions
// (print/math intrinsics and the check_fail error handler) declared.
func NewModule(name string) *Module {
	m := &Module{
		Name:         name,
		funcByName:   make(map[string]*Function),
		globalByName: make(map[string]*Global),
	}
	for _, d := range runtimeDecls {
		f := &Function{Name: d.name, RetType: d.ret, External: true, Module: m}
		for i, pt := range d.params {
			f.Params = append(f.Params, &Param{Func: f, Index: i, Name: fmt.Sprintf("a%d", i), Ty: pt})
		}
		m.Funcs = append(m.Funcs, f)
		m.funcByName[d.name] = f
	}
	return m
}

// runtimeDecls lists the external functions every module starts with.
// They are executed natively by both the IR interpreter and the assembly
// simulator; at assembly level calls to them use the normal calling
// convention, so their argument setup is a call-penetration site like any
// other call.
var runtimeDecls = []struct {
	name   string
	params []Type
	ret    Type
}{
	{"print_i64", []Type{I64}, Void},
	{"print_f64", []Type{F64}, Void},
	{"print_char", []Type{I64}, Void},
	// check_fail terminates the run with outcome Detected. It is the
	// handler duplication checkers branch to on mismatch.
	{"check_fail", nil, Void},
	{"sqrt", []Type{F64}, F64},
	{"fabs", []Type{F64}, F64},
	{"sin", []Type{F64}, F64},
	{"cos", []Type{F64}, F64},
	{"exp", []Type{F64}, F64},
	{"log", []Type{F64}, F64},
	{"pow", []Type{F64, F64}, F64},
	{"floor", []Type{F64}, F64},
}

// IsRuntimeFunc reports whether name is one of the built-in externals.
func IsRuntimeFunc(name string) bool {
	for _, d := range runtimeDecls {
		if d.name == name {
			return true
		}
	}
	return false
}

// NewFunction creates an empty function with the given signature and adds
// it to the module. Parameter names default to p0, p1, ...
func (m *Module) NewFunction(name string, ret Type, paramTypes ...Type) *Function {
	f := &Function{Name: name, RetType: ret, Module: m}
	for i, pt := range paramTypes {
		f.Params = append(f.Params, &Param{Func: f, Index: i, Name: fmt.Sprintf("p%d", i), Ty: pt})
	}
	m.AddFunction(f)
	return f
}

// AddFunction registers f in the module. It panics on duplicate names:
// that is always a program-construction bug.
func (m *Module) AddFunction(f *Function) {
	if _, ok := m.funcByName[f.Name]; ok {
		panic(fmt.Sprintf("ir: duplicate function %q", f.Name))
	}
	f.Module = m
	m.Funcs = append(m.Funcs, f)
	m.funcByName[f.Name] = f
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Function { return m.funcByName[name] }

// NewGlobal creates a zero-initialized global of size bytes.
func (m *Module) NewGlobal(name string, size int64) *Global {
	return m.addGlobal(&Global{Name: name, Size: size})
}

// NewGlobalData creates a global initialized with the given bytes.
func (m *Module) NewGlobalData(name string, data []byte) *Global {
	init := make([]byte, len(data))
	copy(init, data)
	return m.addGlobal(&Global{Name: name, Size: int64(len(data)), Init: init})
}

// NewGlobalI64 creates a global holding little-endian 64-bit integers.
func (m *Module) NewGlobalI64(name string, vals []int64) *Global {
	data := make([]byte, 8*len(vals))
	for i, v := range vals {
		putLE(data[8*i:], uint64(v), 8)
	}
	return m.addGlobal(&Global{Name: name, Size: int64(len(data)), Init: data})
}

// NewGlobalI32 creates a global holding little-endian 32-bit integers.
func (m *Module) NewGlobalI32(name string, vals []int32) *Global {
	data := make([]byte, 4*len(vals))
	for i, v := range vals {
		putLE(data[4*i:], uint64(uint32(v)), 4)
	}
	return m.addGlobal(&Global{Name: name, Size: int64(len(data)), Init: data})
}

// NewGlobalF64 creates a global holding little-endian float64 values.
func (m *Module) NewGlobalF64(name string, vals []float64) *Global {
	data := make([]byte, 8*len(vals))
	for i, v := range vals {
		putLE(data[8*i:], float64Bits(v), 8)
	}
	return m.addGlobal(&Global{Name: name, Size: int64(len(data)), Init: data})
}

func (m *Module) addGlobal(g *Global) *Global {
	if _, ok := m.globalByName[g.Name]; ok {
		panic(fmt.Sprintf("ir: duplicate global %q", g.Name))
	}
	m.Globals = append(m.Globals, g)
	m.globalByName[g.Name] = g
	m.addrEnd = 0 // layout changed; next AssignAddresses recomputes
	return g
}

// Global returns the global with the given name, or nil.
func (m *Module) Global(name string) *Global { return m.globalByName[name] }

// AssignAddresses lays out all globals starting at GlobalBase, 16-byte
// aligned, and returns the end of the data segment. Both execution layers
// call this so a Ptr constant has one meaning everywhere.
//
// The layout is memoized: after one call (and until a global is added),
// further calls only read, so engines may be constructed concurrently on
// a shared module as long as something assigned its addresses first.
func (m *Module) AssignAddresses() int64 {
	if m.addrEnd != 0 {
		return m.addrEnd
	}
	addr := int64(GlobalBase)
	for _, g := range m.Globals {
		g.Addr = addr
		addr += g.Size
		addr = (addr + 15) &^ 15
	}
	m.addrEnd = addr
	return addr
}

// DataImage returns the initial image of the data segment
// [GlobalBase, AssignAddresses()): every global's initializer at its
// address, zero elsewhere. Engines reset memory from it and compare
// faulty runs against it.
func (m *Module) DataImage() []byte {
	img := make([]byte, m.AssignAddresses()-GlobalBase)
	for _, g := range m.Globals {
		off := g.Addr - GlobalBase
		copy(img[off:off+g.Size], g.Init)
	}
	return img
}

// EnumerateInstrs returns every instruction of the module in canonical
// static order (function declaration order, block order, instruction
// order). The IR interpreter's profiling indices and the duplication
// pass's selection indices both refer to positions in this sequence, so
// a selection computed on one module applies to its clone.
func (m *Module) EnumerateInstrs() []*Instr {
	var out []*Instr
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			out = append(out, b.Instrs...)
		}
	}
	return out
}

// SortedFuncs returns non-external functions sorted by name, used by
// printers and passes that need deterministic iteration order.
func (m *Module) SortedFuncs() []*Function {
	var fs []*Function
	for _, f := range m.Funcs {
		if !f.External {
			fs = append(fs, f)
		}
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].Name < fs[j].Name })
	return fs
}

func putLE(b []byte, v uint64, n int) {
	for i := 0; i < n; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func float64Bits(f float64) uint64 {
	return ConstFloat(f).Bits
}
