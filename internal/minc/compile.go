package minc

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Program is a compiled translation unit, ready to be linked into a
// machine.
type Program struct {
	Unit       *Unit
	funcs      []*irFunc
	globalSyms map[string]*symbol
}

// Compile parses, checks, lowers and optimizes one translation unit at the
// default level (O1).
func Compile(src string) (*Program, error) {
	return CompileWithLevel(src, O1)
}

// CompileWithLevel compiles with an explicit optimization level.
func CompileWithLevel(src string, level OptLevel) (*Program, error) {
	unit, err := Parse(src)
	if err != nil {
		return nil, err
	}
	checked, globals, err := check(unit)
	if err != nil {
		return nil, err
	}
	p := &Program{Unit: unit, globalSyms: globals}
	for _, fd := range unit.Funcs {
		irf, err := lowerFunc(checked[fd.Name])
		if err != nil {
			return nil, err
		}
		// Terminate any unreachable open blocks.
		for _, b := range irf.blocks {
			if !b.terminated() {
				b.ins = append(b.ins, irInstr{Op: irRet, A: -1})
			}
		}
		optimizeIR(irf, level)
		p.funcs = append(p.funcs, irf)
	}
	return p, nil
}

// IRDump renders the IR of one function (for tests and debugging).
func (p *Program) IRDump(name string) string {
	for _, f := range p.funcs {
		if f.name == name {
			return f.String()
		}
	}
	return ""
}

// Linked is a program placed into a machine's address space.
type Linked struct {
	Prog    *Program
	Machine *vm.Machine
	Funcs   map[string]uint64
	Globals map[string]uint64
	Sizes   map[string]int // code bytes per function
	Lines   *LineTable     // PC -> (function, source line), from the final pass
}

// FuncAddr returns a linked function's entry address.
func (l *Linked) FuncAddr(name string) (uint64, error) {
	a, ok := l.Funcs[name]
	if !ok {
		return 0, fmt.Errorf("minc: no function %s", name)
	}
	return a, nil
}

// GlobalAddr returns a linked global's address.
func (l *Linked) GlobalAddr(name string) (uint64, error) {
	a, ok := l.Globals[name]
	if !ok {
		return 0, fmt.Errorf("minc: no global %s", name)
	}
	return a, nil
}

// Disassemble returns the generated code of one function as a listing.
func (l *Linked) Disassemble(name string) (string, error) {
	a, err := l.FuncAddr(name)
	if err != nil {
		return "", err
	}
	n := l.Sizes[name]
	b, err := l.Machine.Mem.ReadBytes(a, n)
	if err != nil {
		return "", err
	}
	return isa.Disassemble(b, a, false), nil
}

// Link lays out globals, resolves symbols (externs come from the given
// map), generates code and writes everything into the machine.
func (p *Program) Link(m *vm.Machine, externs map[string]uint64) (*Linked, error) {
	l := &Linked{
		Prog:    p,
		Machine: m,
		Funcs:   make(map[string]uint64),
		Globals: make(map[string]uint64),
		Sizes:   make(map[string]int),
	}
	// Globals.
	for _, g := range p.Unit.Globals {
		size := globalSize(g)
		addr, err := m.DataAlloc.Alloc(uint64(size))
		if err != nil {
			return nil, fmt.Errorf("minc: allocating global %s: %w", g.Name, err)
		}
		buf := make([]byte, size)
		if g.Init != nil {
			if err := fillInit(g.Type, g.Init, buf, 0); err != nil {
				return nil, fmt.Errorf("minc: initializing %s: %w", g.Name, err)
			}
		}
		if err := m.Mem.WriteBytes(addr, buf); err != nil {
			return nil, err
		}
		l.Globals[g.Name] = addr
	}

	// Function address resolution needs code sizes: emit once against
	// placeholder function addresses (sizes are layout-stable), then
	// place and re-emit.
	probe := &symAddrs{global: l.Globals, fn: map[string]uint64{}}
	for _, f := range p.funcs {
		probe.fn[f.name] = 0x7F00_0000
	}
	for _, e := range p.Unit.Externs {
		if a, ok := externs[e.Name]; ok {
			probe.fn[e.Name] = a
		} else {
			probe.fn[e.Name] = 0x7F00_0000
		}
	}
	sizes := make(map[string]int)
	total := uint64(0)
	for _, f := range p.funcs {
		_, code, _, err := emitFunc(f, 0, probe)
		if err != nil {
			return nil, err
		}
		sizes[f.name] = len(code)
		total += uint64(len(code)) + 16 // padding between functions
	}
	base, err := m.CodeAlloc.Alloc(total)
	if err != nil {
		return nil, fmt.Errorf("minc: allocating code: %w", err)
	}
	real := &symAddrs{global: l.Globals, fn: map[string]uint64{}}
	addr := base
	for _, f := range p.funcs {
		real.fn[f.name] = addr
		l.Funcs[f.name] = addr
		addr += uint64(sizes[f.name]) + 16
	}
	for _, e := range p.Unit.Externs {
		a, ok := externs[e.Name]
		if !ok {
			return nil, fmt.Errorf("minc: unresolved extern %s", e.Name)
		}
		real.fn[e.Name] = a
	}
	l.Lines = &LineTable{}
	for _, f := range p.funcs {
		ins, code, lines, err := emitFunc(f, real.fn[f.name], real)
		if err != nil {
			return nil, err
		}
		if len(code) != sizes[f.name] {
			return nil, fmt.Errorf("minc: %s changed size between passes (%d -> %d)", f.name, sizes[f.name], len(code))
		}
		if err := m.Mem.WriteBytes(real.fn[f.name], code); err != nil {
			return nil, err
		}
		m.InvalidateCode(real.fn[f.name], real.fn[f.name]+uint64(len(code)))
		l.Sizes[f.name] = len(code)
		entries := make([]LineEntry, len(ins))
		for i := range ins {
			entries[i] = LineEntry{Addr: ins[i].Addr, Line: lines[i]}
		}
		lo := real.fn[f.name]
		l.Lines.add(f.name, lo, lo+uint64(len(code)), entries)
	}
	l.Lines.sortFuncs()
	m.InvalidateCode(base, base+total)
	return l, nil
}

// CompileAndLink is the one-call convenience used by tests and examples.
func CompileAndLink(m *vm.Machine, src string, externs map[string]uint64) (*Linked, error) {
	p, err := Compile(src)
	if err != nil {
		return nil, err
	}
	return p.Link(m, externs)
}

// globalSize computes a global's storage size, extending structs whose
// last member is a flexible array by the initializer length (the paper's
// struct S { int ps; struct P p[]; }).
func globalSize(g *Global) int64 {
	size := g.Type.Size()
	t := g.Type
	if t.Kind == TStruct && len(t.Fields) > 0 && g.Init != nil && len(g.Init.List) == len(t.Fields) {
		last := t.Fields[len(t.Fields)-1]
		if last.Type.Kind == TArray && last.Type.Len < 0 {
			n := len(g.Init.List[len(t.Fields)-1].List)
			size += int64(n) * last.Type.Elem.Size()
		}
	}
	if t.Kind == TArray && t.Len < 0 && g.Init != nil {
		size = int64(len(g.Init.List)) * t.Elem.Size()
	}
	if size == 0 {
		size = 8
	}
	return size
}

// constEval evaluates a constant initializer expression.
func constEval(e *Expr) (int64, float64, bool, error) {
	switch e.Kind {
	case ExIntLit:
		return e.IVal, float64(e.IVal), false, nil
	case ExFloatLit:
		return int64(e.FVal), e.FVal, true, nil
	case ExSizeof:
		return e.sizeofT.Size(), float64(e.sizeofT.Size()), false, nil
	case ExUnary:
		if e.Op == "-" {
			i, f, isF, err := constEval(e.X)
			return -i, -f, isF, err
		}
	case ExBinary:
		xi, xf, xIsF, err := constEval(e.X)
		if err != nil {
			return 0, 0, false, err
		}
		yi, yf, yIsF, err := constEval(e.Y)
		if err != nil {
			return 0, 0, false, err
		}
		isF := xIsF || yIsF
		switch e.Op {
		case "+":
			return xi + yi, xf + yf, isF, nil
		case "-":
			return xi - yi, xf - yf, isF, nil
		case "*":
			return xi * yi, xf * yf, isF, nil
		case "/":
			if !isF && yi != 0 {
				return xi / yi, xf / yf, isF, nil
			}
			if isF {
				return int64(xf / yf), xf / yf, true, nil
			}
		}
	case ExCast:
		i, f, _, err := constEval(e.X)
		if err != nil {
			return 0, 0, false, err
		}
		if e.castTo.Kind == TDouble {
			return i, f, true, nil
		}
		return i, f, false, nil
	}
	return 0, 0, false, errAt(e.Line, 1, "initializer is not a constant")
}

// fillInit writes an initializer into buf at offset off.
func fillInit(t *Type, iv *InitVal, buf []byte, off int64) error {
	switch t.Kind {
	case TLong, TPtr:
		if iv.Expr == nil {
			return errAt(iv.Line, 1, "scalar initializer expected")
		}
		i, f, isF, err := constEval(iv.Expr)
		if err != nil {
			return err
		}
		v := i
		if isF {
			v = int64(f)
		}
		putLE(buf, off, uint64(v))
		return nil
	case TDouble:
		if iv.Expr == nil {
			return errAt(iv.Line, 1, "scalar initializer expected")
		}
		i, f, isF, err := constEval(iv.Expr)
		if err != nil {
			return err
		}
		if !isF {
			f = float64(i)
		}
		putLE(buf, off, math.Float64bits(f))
		return nil
	case TArray:
		if iv.List == nil {
			return errAt(iv.Line, 1, "array initializer must be a list")
		}
		esz := t.Elem.Size()
		for i, sub := range iv.List {
			if err := fillInit(t.Elem, sub, buf, off+int64(i)*esz); err != nil {
				return err
			}
		}
		return nil
	case TStruct:
		if iv.List == nil {
			return errAt(iv.Line, 1, "struct initializer must be a list")
		}
		if len(iv.List) > len(t.Fields) {
			return errAt(iv.Line, 1, "too many initializers for struct %s", t.StructName)
		}
		for i, sub := range iv.List {
			f := t.Fields[i]
			if err := fillInit(f.Type, sub, buf, off+f.Offset); err != nil {
				return err
			}
		}
		return nil
	}
	return errAt(iv.Line, 1, "cannot initialize type %s", t)
}

func putLE(buf []byte, off int64, v uint64) {
	for i := 0; i < 8; i++ {
		buf[off+int64(i)] = byte(v)
		v >>= 8
	}
}
