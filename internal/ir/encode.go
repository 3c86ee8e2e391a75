package ir

import (
	"encoding/hex"
	"io"
	"math"
	"strconv"
)

// This file is the one encoder of the IR's canonical textual form: the
// printer (every String method), the signer (internal/signing hashes
// WriteCanonical's stream) and the parser's round-trip contract all go
// through it, so there is exactly one definition of the bytes a signature
// covers. It is append-only — no fmt, no per-instruction builder — and
// Parse(m.String()) prints back to the same bytes.

// encChunk is how much text the encoder buffers before handing it to the
// writer: the memory a WriteCanonical call holds is this plus one line,
// whatever the module's size.
const encChunk = 8 << 10

// encoder appends canonical text to buf. With a writer it spills buf every
// encChunk bytes; without one (the String methods) buf simply grows.
type encoder struct {
	w   io.Writer
	buf text
	err error
}

func (e *encoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *encoder) spill() {
	if e.w != nil && len(e.buf) >= encChunk {
		e.flush()
	}
}

// WriteCanonical streams the module's canonical textual form to w: the
// bytes String returns, produced in bounded memory. It returns the first
// error w reports.
func (m *Module) WriteCanonical(w io.Writer) error {
	e := encoder{w: w, buf: make([]byte, 0, encChunk+encChunk/8)}
	e.module(m)
	e.flush()
	return e.err
}

// String renders the module in its textual syntax. The output parses back
// to an equivalent module (see Parse).
func (m *Module) String() string {
	var e encoder
	e.module(m)
	return string(e.buf)
}

// String renders the global's definition line.
func (g *Global) String() string {
	var e encoder
	e.global(g)
	return string(e.buf)
}

// String renders the function definition or declaration.
func (f *Func) String() string {
	var e encoder
	e.fn(f)
	return string(e.buf)
}

// String renders one instruction in its textual syntax.
func (in *Instr) String() string { return string(text(nil).instr(in)) }

// String returns the textual syntax of t, e.g. "i32", "ptr", "[4 x f64]",
// "{i64, ptr}", "f64 (i32, ptr)".
func (t *Type) String() string { return string(t.AppendText(nil)) }

func (e *encoder) module(m *Module) {
	e.buf = text(strconv.AppendQuote(e.buf.s("module "), m.Name)).s("\n")
	for _, g := range m.Globals {
		e.buf = e.buf.s("\n")
		e.global(g)
		e.buf = e.buf.s("\n")
	}
	for _, f := range m.Funcs {
		if e.err != nil {
			return
		}
		e.buf = e.buf.s("\n")
		e.fn(f)
		e.buf = e.buf.s("\n")
	}
}

func (e *encoder) global(g *Global) {
	e.buf = e.buf.s("global @").s(g.Name).s(" : ").typ(g.Elem)
	if len(g.Init) > 0 {
		e.buf = e.buf.s(" = #")
		for init := g.Init; len(init) > 0; e.spill() {
			n := min(len(init), encChunk/2)
			e.buf = hex.AppendEncode(e.buf, init[:n])
			init = init[n:]
		}
	}
	if len(g.PtrInit) > 0 {
		e.buf = e.buf.s(" ptrs [")
		for i, off := range g.PtrInit {
			e.buf = e.buf.sep(i).int(off)
			e.spill()
		}
		e.buf = e.buf.s("]")
	}
}

func (e *encoder) fn(f *Func) {
	b := e.buf.s("func @").s(f.Name).s("(")
	for i, p := range f.Params {
		b = b.sep(i).s("%").s(p.Name).s(": ").typ(p.Typ)
	}
	e.buf = b.s(") -> ").typ(f.RetTyp)
	if f.IsDecl() {
		return
	}
	e.buf = e.buf.s(" {\n")
	for _, blk := range f.Blocks {
		e.buf = e.buf.s(blk.Name).s(":\n")
		for _, in := range blk.Instrs {
			e.buf = e.buf.s("  ").instr(in).s("\n")
			e.spill()
		}
	}
	e.buf = e.buf.s("}")
}

// text is canonical text under construction. Its methods append one piece
// of syntax each and return the longer text, so that one line of syntax
// reads as one chained expression over a local the compiler keeps in
// registers.
type text []byte

func (b text) s(a string) text  { return append(b, a...) }
func (b text) int(v int64) text { return strconv.AppendInt(b, v, 10) }
func (b text) typ(t *Type) text { return t.AppendText(b) }

// sep appends the list separator before every element but the first.
func (b text) sep(i int) text {
	if i > 0 {
		return append(b, ", "...)
	}
	return b
}

func (b text) instr(in *Instr) text {
	if in.Op.HasResult() && in.Typ != Void {
		b = b.s("%").s(in.Name).s(" = ")
	}
	b = b.s(in.Op.String())
	switch {
	case in.Op.IsBinary(), in.Op == OpSelect:
		return b.s(" ").typ(in.Typ).s(" ").opds(in.Args)
	case in.Op == OpICmp, in.Op == OpFCmp:
		return b.s(" ").s(in.Pred.String()).s(" ").typ(in.Args[0].Type()).s(" ").opds(in.Args)
	case in.Op.IsCast():
		return b.s(" ").typ(in.Args[0].Type()).s(" ").opd(in.Args[0]).s(" to ").typ(in.Typ)
	case in.Op == OpAlloca, in.Op == OpLoad, in.Op == OpGEP:
		return b.s(" ").typ(in.Elem).s(", ").opds(in.Args)
	case in.Op == OpStore, in.Op == OpRet && len(in.Args) > 0:
		return b.s(" ").typ(in.Args[0].Type()).s(" ").opds(in.Args)
	case in.Op == OpRet:
		return b.s(" void")
	case in.Op == OpPhi:
		b = b.s(" ").typ(in.Typ).s(" ")
		for i, a := range in.Args {
			b = b.sep(i).s("[").opd(a).s(", ^").s(in.Preds[i].Name).s("]")
		}
	case in.Op == OpCall:
		b = b.s(" ").typ(in.Typ).s(" @").s(in.Callee.Name).s("(")
		for i, a := range in.Args {
			b = b.sep(i).typ(a.Type()).s(" ").opd(a)
		}
		return b.s(")")
	case in.Op == OpBr:
		return b.s(" ^").s(in.Succs[0].Name)
	case in.Op == OpCondBr:
		return b.s(" ").opd(in.Args[0]).s(", ^").s(in.Succs[0].Name).s(", ^").s(in.Succs[1].Name)
	case in.Op == OpGuard:
		return b.s(" ").s(in.Kind.String()).s(" ").opds(in.Args)
	case in.Op != OpUnreachable:
		return b.s(" ???")
	}
	return b
}

// opds appends vs as a comma-separated operand list.
func (b text) opds(vs []Value) text {
	for i, v := range vs {
		b = b.sep(i).opd(v)
	}
	return b
}

// opd appends v's operand syntax: what v.Ref() returns, without building
// the string for the value kinds the IR itself defines.
func (b text) opd(v Value) text {
	switch x := v.(type) {
	case *Instr:
		return b.s("%").s(x.Name)
	case *Param:
		return b.s("%").s(x.Name)
	case *Global:
		return b.s("@").s(x.Name)
	case *Func:
		return b.s("@").s(x.Name)
	case *Const:
		return x.AppendRef(b)
	case nil:
		return b.s("<nil>")
	}
	return b.s(v.Ref())
}

// AppendRef appends the constant's operand syntax to b. Finite floats print
// in decimal; NaN and ±Inf, which have no decimal literal, print as their
// IEEE bits ("f64:0x7ff0000000000000"), and a non-null pointer constant as
// "ptr:0x…".
func (c *Const) AppendRef(b []byte) []byte {
	switch {
	case c.Typ.IsPtr() && c.Int == 0:
		return append(b, "null"...)
	case c.Typ.IsPtr():
		return strconv.AppendUint(append(b, "ptr:0x"...), uint64(c.Int), 16)
	case !c.Typ.IsFloat():
		return strconv.AppendInt(b, c.Int, 10)
	case math.IsNaN(c.Float) || math.IsInf(c.Float, 0):
		return strconv.AppendUint(append(b, "f64:0x"...), math.Float64bits(c.Float), 16)
	case c.Float == math.Trunc(c.Float) && math.Abs(c.Float) < 1e15:
		return strconv.AppendFloat(b, c.Float, 'f', 1, 64)
	}
	return strconv.AppendFloat(b, c.Float, 'g', -1, 64)
}

// AppendText appends the textual syntax of t (see String) to b. The text is
// structural: Equal types append equal bytes. It is a plain recursive
// append, not encoder methods, so that callers outside the encoder (CSE's
// keys) pay no allocation for it.
func (t *Type) AppendText(b []byte) []byte {
	if t == nil {
		return append(b, "<nil>"...)
	}
	switch t.Kind {
	case VoidKind:
		return append(b, "void"...)
	case IntKind:
		return strconv.AppendInt(append(b, 'i'), int64(t.Bits), 10)
	case FloatKind:
		return append(b, "f64"...)
	case PtrKind:
		return append(b, "ptr"...)
	case ArrayKind:
		b = strconv.AppendInt(append(b, '['), int64(t.Len), 10)
		return append(t.Elem.AppendText(append(b, " x "...)), ']')
	case StructKind:
		return append(appendTypes(append(b, '{'), t.Fields), '}')
	case FuncKind:
		b = appendTypes(append(t.Ret.AppendText(b), " ("...), t.Params)
		if t.Vararg && len(t.Params) > 0 {
			b = append(b, ", "...)
		}
		if t.Vararg {
			b = append(b, "..."...)
		}
		return append(b, ')')
	}
	return append(b, '?')
}

func appendTypes(b []byte, ts []*Type) []byte {
	for i, t := range ts {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = t.AppendText(b)
	}
	return b
}
