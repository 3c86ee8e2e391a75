package ir

import (
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses the textual IR syntax produced by Module.String and returns
// the module. Parse is the inverse of printing: for any module m,
// Parse(m.String()) yields a module whose printing equals m.String().
func Parse(src string) (m *Module, err error) {
	p := &parser{
		lex:    &lexer{src: src, line: 1},
		locals: make(map[string]Value), blocks: make(map[string]*Block),
		funcs: make(map[string]*Func), globals: make(map[string]*Global),
	}
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(parseError)
			if !ok {
				panic(r)
			}
			line := pe.line
			if line == 0 {
				line = p.lex.last
			}
			m, err = nil, fmt.Errorf("ir: parse: line %d: %w", line, pe.error)
		}
	}()
	p.lex.advance()
	return p.parseModule(), nil
}

// parseError carries a syntax error up to Parse: the lexer and the parser's
// productions panic with it rather than thread an error through every
// call, and Parse alone recovers it (any other panic passes through). line
// is the offending token's; 0 names the token the parser consumed last.
type parseError struct {
	line int
	error
}

// failf fails on the token the parser consumed last.
func failf(format string, args ...any) { failAt(0, format, args...) }

// failAt fails on a token of the given line.
func failAt(line int, format string, args ...any) {
	panic(parseError{line, fmt.Errorf(format, args...)})
}

// failHere fails on the token in hand, not yet consumed.
func (p *parser) failHere(format string, args ...any) { failAt(p.lex.tok.line, format, args...) }

// MustParse is Parse that panics on error, for tests and examples.
func MustParse(src string) *Module {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

type tokKind int

const (
	tEOF    tokKind = iota
	tIdent          // bare identifier or keyword
	tLocal          // %name
	tGlobal         // @name
	tLabel          // ^name
	tNum            // integer or float literal
	tStr            // "..."
	tHex            // #hexbytes
	tPunct          // single punctuation or "->"
)

type token struct {
	kind tokKind
	text string
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
	last int // the line of the token before tok, the last one consumed
	tok  token
}

// colonFollows reports whether the next token is ":", i.e. whether the
// current identifier is a block label. It skips ahead to that token's
// first byte, as advance would anyway, without lexing it.
func (l *lexer) colonFollows() bool {
	l.skipSpace()
	return l.pos < len(l.src) && l.src[l.pos] == ':'
}

func (l *lexer) advance() {
	l.last = l.tok.line
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		l.tok = token{kind: tEOF, line: l.line}
		return
	}
	c := l.src[l.pos]
	switch {
	case c == '%' || c == '@' || c == '^':
		l.pos++
		for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
			l.pos++
		}
		kind := tLocal
		if c == '@' {
			kind = tGlobal
		} else if c == '^' {
			kind = tLabel
		}
		l.tok = token{kind: kind, text: l.src[start+1 : l.pos], line: l.line}
	case c == '#':
		l.pos++
		for l.pos < len(l.src) && isHexChar(l.src[l.pos]) {
			l.pos++
		}
		l.tok = token{kind: tHex, text: l.src[start+1 : l.pos], line: l.line}
	case c == '"':
		// A Go-syntax interpreted string literal, as strconv.Quote writes it.
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] != '"' && l.src[l.pos] != '\n' {
			if l.src[l.pos] == '\\' {
				l.pos++
			}
			l.pos++
		}
		if l.pos >= len(l.src) || l.src[l.pos] != '"' {
			failAt(l.line, "unterminated string")
		}
		l.pos++
		text, err := strconv.Unquote(l.src[start:l.pos])
		if err != nil {
			failAt(l.line, "bad string %s: %v", l.src[start:l.pos], err)
		}
		l.tok = token{kind: tStr, text: text, line: l.line}
	case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '>':
		l.pos += 2
		l.tok = token{kind: tPunct, text: "->", line: l.line}
	case c == '0' && l.pos+1 < len(l.src) && l.src[l.pos+1] == 'x':
		// Hex bits, only ever after "ptr:" or "f64:" (see Const.AppendRef).
		l.pos += 2
		for l.pos < len(l.src) && isHexChar(l.src[l.pos]) {
			l.pos++
		}
		l.tok = token{kind: tNum, text: l.src[start:l.pos], line: l.line}
	case c == '-' || c >= '0' && c <= '9':
		l.pos++
		for l.pos < len(l.src) && (isNumChar(l.src[l.pos])) {
			l.pos++
		}
		l.tok = token{kind: tNum, text: l.src[start:l.pos], line: l.line}
	case isIdentChar(c):
		for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
			l.pos++
		}
		l.tok = token{kind: tIdent, text: l.src[start:l.pos], line: l.line}
	default:
		l.pos++
		l.tok = token{kind: tPunct, text: l.src[start:l.pos], line: l.line}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\n' {
			l.line++
			l.pos++
		} else if c == ';' { // comment to end of line
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		} else if isSpace(c) {
			l.pos++
		} else {
			return
		}
	}
}

func isSpace(c byte) bool { return c == ' ' || unicode.IsSpace(rune(c)) }

func isIdentChar(c byte) bool {
	return c == '_' || c == '.' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func isHexChar(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func isNumChar(c byte) bool {
	return c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-'
}

// fixup is a use parsed before its definition, on line: operand arg of
// instr (or, with arg == calleeArg, its Callee) is the value called name.
type fixup struct {
	instr *Instr
	arg   int
	name  string
	line  int
}

const calleeArg = -1

type parser struct {
	lex    *lexer
	mod    *Module
	fn     *Func
	locals map[string]Value
	blocks map[string]*Block
	// undefined counts the labels of p.blocks mentioned but not yet defined.
	undefined int
	fixups    []fixup // forward references to locals, resolved per function
	labelRefs []fixup // the first mention of each label not yet defined at it
	// Module symbols by name: Module.Func and Module.Global scan, which per
	// call and per operand would make parsing quadratic in module size.
	funcs      map[string]*Func
	globals    map[string]*Global
	funcFixups []fixup // references to functions defined further down
}

func (p *parser) isPunct(s string) bool { return p.lex.tok.kind == tPunct && p.lex.tok.text == s }
func (p *parser) isIdent(s string) bool { return p.lex.tok.kind == tIdent && p.lex.tok.text == s }

func (p *parser) expectPunct(s string) {
	if !p.isPunct(s) {
		p.failHere("expected %q, got %q", s, p.lex.tok.text)
	}
	p.lex.advance()
}

func (p *parser) expectIdent(s string) {
	if !p.isIdent(s) {
		p.failHere("expected %q, got %q", s, p.lex.tok.text)
	}
	p.lex.advance()
}

// take consumes a token of kind k, described as what in the error
// otherwise, and returns its text.
func (p *parser) take(k tokKind, what string) string {
	if p.lex.tok.kind != k {
		p.failHere("expected %s, got %q", what, p.lex.tok.text)
	}
	text := p.lex.tok.text
	p.lex.advance()
	return text
}

// list parses comma-separated items up to and including the closing
// punctuation.
func (p *parser) list(closing string, item func()) {
	for n := 0; !p.isPunct(closing); n++ {
		if n > 0 {
			p.expectPunct(",")
		}
		item()
	}
	p.lex.advance()
}

func (p *parser) parseModule() *Module {
	p.expectIdent("module")
	p.mod = NewModule(p.take(tStr, "module name string"))
	for p.lex.tok.kind != tEOF {
		switch {
		case p.isIdent("global"):
			p.parseGlobal()
		case p.isIdent("func"):
			p.parseFunc()
		default:
			p.failHere("unexpected token %q at top level", p.lex.tok.text)
		}
	}
	for _, fx := range p.funcFixups {
		f := p.funcs[fx.name]
		if f == nil {
			failAt(fx.line, "undefined symbol @%s", fx.name)
		}
		if fx.arg == calleeArg {
			fx.instr.Callee = f
		} else {
			fx.instr.Args[fx.arg] = f
		}
	}
	return p.mod
}

func (p *parser) parseSig() (params []*Param, ret *Type) {
	p.expectPunct("(")
	p.list(")", func() {
		name := p.take(tLocal, "parameter name")
		p.expectPunct(":")
		params = append(params, &Param{Name: name, Typ: p.parseType()})
	})
	p.expectPunct("->")
	return params, p.parseType()
}

func (p *parser) parseType() *Type {
	switch {
	case p.lex.tok.kind == tIdent:
		switch name := p.take(tIdent, "type"); name {
		default:
			failf("unknown type %q", name)
		case "void":
			return Void
		case "i1":
			return I1
		case "i8":
			return I8
		case "i16":
			return I16
		case "i32":
			return I32
		case "i64":
			return I64
		case "f64":
			return F64
		case "ptr":
			return Ptr
		}
	case p.isPunct("["):
		p.lex.advance()
		n, err := strconv.Atoi(p.take(tNum, "array length"))
		if err != nil || n < 0 {
			failf("bad array length")
		}
		p.expectIdent("x")
		elem := p.parseType()
		p.expectPunct("]")
		return ArrayOf(elem, n)
	case p.isPunct("{"):
		p.lex.advance()
		var fields []*Type
		p.list("}", func() { fields = append(fields, p.parseType()) })
		return StructOf(fields...)
	}
	p.failHere("expected type, got %q", p.lex.tok.text)
	return nil
}

func (p *parser) parseGlobal() {
	p.lex.advance() // "global"
	name := p.take(tGlobal, "global name")
	p.expectPunct(":")
	elem := p.parseType()
	if p.globals[name] != nil {
		failf("duplicate global @%s", name)
	}
	g := p.mod.AddGlobal(name, elem)
	p.globals[name] = g
	if p.isPunct("=") {
		p.lex.advance()
		var err error
		if g.Init, err = hex.DecodeString(p.take(tHex, "#hex initializer")); err != nil {
			failf("%v", err)
		}
	}
	if p.isIdent("ptrs") {
		p.lex.advance()
		p.expectPunct("[")
		p.list("]", func() {
			off, err := strconv.ParseInt(p.take(tNum, "pointer offset"), 10, 64)
			if err != nil {
				failf("%v", err)
			}
			g.PtrInit = append(g.PtrInit, off)
		})
	}
}

func (p *parser) parseFunc() {
	p.lex.advance() // "func"
	name := p.take(tGlobal, "function name")
	params, ret := p.parseSig()
	if p.funcs[name] != nil {
		failf("duplicate function @%s", name)
	}
	fn := p.mod.AddFunc(name, ret, params...)
	p.funcs[name], p.fn = fn, fn
	if !p.isPunct("{") {
		return // declaration only
	}
	p.lex.advance()

	clear(p.locals)
	clear(p.blocks)
	p.undefined, p.fixups, p.labelRefs = 0, p.fixups[:0], p.labelRefs[:0]
	for _, prm := range fn.Params {
		p.locals[prm.Name] = prm
	}

	var cur *Block
	for !p.isPunct("}") {
		switch {
		case p.lex.tok.kind == tEOF:
			p.failHere("unexpected EOF in function body")
		case p.lex.tok.kind == tIdent && p.lex.colonFollows(): // label line
			cur = p.blockRef(p.lex.tok.text, true)
			p.lex.advance()
			p.lex.advance()
		case cur == nil:
			p.failHere("instruction before first block label")
		default:
			in := cur.Append(p.parseInstr())
			if in.Name != "" {
				p.locals[in.Name] = in
			}
		}
	}
	p.lex.advance() // "}"

	if p.undefined != 0 {
		for _, r := range p.labelRefs {
			if p.blocks[r.name].Fn == nil {
				failAt(r.line, "branch to undefined label ^%s in @%s", r.name, fn.Name)
			}
		}
	}
	// Resolve fixups (forward value references, e.g. in phis).
	for _, fx := range p.fixups {
		v, ok := p.locals[fx.name]
		if !ok {
			failAt(fx.line, "undefined value %%%s in @%s", fx.name, fn.Name)
		}
		fx.instr.Args[fx.arg] = checkType(fx.line, v, fx.instr.Args[fx.arg].Type(), "%", fx.name)
	}
}

// blockRef returns the block labelled name, created at its first mention.
// Its label line (define) is what puts it into the function, in source
// order. p.blocks keeps labels unique, so the block is appended as is:
// Func.NewBlock would rescan every block of the function per label.
func (p *parser) blockRef(name string, define bool) *Block {
	b := p.blocks[name]
	if b == nil {
		b = &Block{Name: name}
		p.blocks[name] = b
		p.undefined++
		if !define {
			p.labelRefs = append(p.labelRefs, fixup{name: name, line: p.lex.last})
		}
	}
	if define {
		if b.Fn != nil {
			p.failHere("label %s defined twice in @%s", name, p.fn.Name)
		}
		b.Fn, b.Idx = p.fn, len(p.fn.Blocks)
		p.fn.Blocks = append(p.fn.Blocks, b)
		p.undefined--
	}
	return b
}

// label parses a ^name block reference.
func (p *parser) label() *Block { return p.blockRef(p.take(tLabel, "block label"), false) }

// anyInt is the expected type of an operand whose syntax states none and
// which need only be some integer (a gep index, an alloca count, a guard
// size); a literal there is an i64.
var anyInt = &Type{Kind: IntKind, Bits: 64}

// checkType fails unless v, written sigil+name on line, has the type its
// context states. The encoder writes several instructions' types from their
// operands, so a value admitted under another type would print as text
// that parses differently.
func checkType(line int, v Value, want *Type, sigil, name string) Value {
	if want != anyInt && !v.Type().Equal(want) {
		failAt(line, "%s%s has type %s, not %s", sigil, name, v.Type(), want)
	}
	return v
}

// operand parses a value reference in a context expecting type t, to be
// operand argIdx of in. A local not yet defined, or a function defined
// further down, yields a placeholder and a fixup.
func (p *parser) operand(in *Instr, argIdx int, t *Type) Value {
	tok := p.lex.tok
	p.lex.advance()
	switch tok.kind {
	case tLocal:
		if v, ok := p.locals[tok.text]; ok {
			return checkType(tok.line, v, t, "%", tok.text)
		}
		p.fixups = append(p.fixups, fixup{instr: in, arg: argIdx, name: tok.text, line: tok.line})
		return placeholder{t}
	case tGlobal: // a global or a function: either way an address
		var v Value = placeholder{Ptr}
		if g := p.globals[tok.text]; g != nil {
			v = g
		} else if f := p.funcs[tok.text]; f != nil {
			v = f
		} else {
			p.funcFixups = append(p.funcFixups, fixup{instr: in, arg: argIdx, name: tok.text, line: tok.line})
		}
		return checkType(tok.line, v, t, "@", tok.text)
	case tNum:
		if t == anyInt {
			t = I64
		}
		if t.IsFloat() {
			f, err := strconv.ParseFloat(tok.text, 64)
			if err != nil {
				failf("%v", err)
			}
			return ConstFloat(f)
		}
		n, err := strconv.ParseInt(tok.text, 10, 64)
		if err != nil {
			failf("%v", err)
		}
		if t.IsInt() {
			if b := t.Bits; b < 64 && (n < -1<<(b-1) || n > 1<<b-1) {
				failf("integer literal %s out of range for %s", tok.text, t)
			}
			return ConstInt(t, n)
		}
		if !t.IsPtr() {
			failf("integer literal %s for a value of type %s", tok.text, t)
		}
		return &Const{Typ: t, Int: n}
	case tIdent:
		switch tok.text {
		case "null":
			return ConstNull()
		case "ptr", "f64": // ptr:0x… and f64:0x…, see Const.AppendRef
			p.expectPunct(":")
			text := p.take(tNum, "0x… bits")
			bits, err := strconv.ParseUint(text, 0, 64)
			if !strings.HasPrefix(text, "0x") || err != nil {
				failf("expected 0x… bits after %s:, got %q", tok.text, text)
			}
			if tok.text == "ptr" {
				return &Const{Typ: Ptr, Int: int64(bits)}
			}
			return ConstFloat(math.Float64frombits(bits))
		}
	}
	failf("expected operand, got %q", tok.text)
	return nil
}

// operands parses one comma-separated operand per expected type into
// in.Args.
func (p *parser) operands(in *Instr, ts ...*Type) {
	in.Args = make([]Value, len(ts))
	for i, t := range ts {
		if i > 0 {
			p.expectPunct(",")
		}
		in.Args[i] = p.operand(in, i, t)
	}
}

// appendOperand parses one more operand of in.
func (p *parser) appendOperand(in *Instr, t *Type) {
	in.Args = append(in.Args, nil)
	in.Args[len(in.Args)-1] = p.operand(in, len(in.Args)-1, t)
}

// placeholder stands in for a forward-referenced value until fixup.
type placeholder struct{ t *Type }

func (ph placeholder) Type() *Type { return ph.t }
func (ph placeholder) Ref() string { return "%?" }

func (p *parser) parseInstr() *Instr {
	var name string
	if p.lex.tok.kind == tLocal {
		name = p.take(tLocal, "value name")
		p.expectPunct("=")
	}
	opName := p.take(tIdent, "opcode")
	op, ok := opByName[opName]
	if !ok {
		failf("unknown opcode %q", opName)
	}
	in := &Instr{Op: op, Name: name, Typ: Void}

	switch {
	case op.IsBinary():
		in.Typ = p.parseType()
		p.operands(in, in.Typ, in.Typ)
	case op == OpICmp || op == OpFCmp:
		pred := p.take(tIdent, "predicate")
		if in.Pred, ok = predByName[pred]; !ok {
			failf("unknown predicate %q", pred)
		}
		t := p.parseType()
		in.Typ = I1
		p.operands(in, t, t)
	case op.IsCast():
		p.operands(in, p.parseType())
		p.expectIdent("to")
		in.Typ = p.parseType()
	case op == OpAlloca:
		in.Elem, in.Typ = p.parseType(), Ptr
		p.expectPunct(",")
		p.operands(in, anyInt)
	case op == OpLoad:
		in.Elem = p.parseType()
		in.Typ = in.Elem
		p.expectPunct(",")
		p.operands(in, Ptr)
	case op == OpStore:
		p.operands(in, p.parseType(), Ptr)
	case op == OpGEP:
		in.Elem, in.Typ = p.parseType(), Ptr
		in.Args = make([]Value, 0, 2)
		for t := Ptr; p.isPunct(","); t = anyInt {
			p.lex.advance()
			p.appendOperand(in, t)
		}
		if len(in.Args) == 0 {
			failf("gep without a base pointer")
		}
	case op == OpPhi:
		in.Typ = p.parseType()
		for more := p.isPunct("["); more; more = p.isPunct(",") { // an entry-block phi has no incoming
			if len(in.Args) > 0 {
				p.lex.advance()
			}
			p.expectPunct("[")
			p.appendOperand(in, in.Typ)
			p.expectPunct(",")
			in.Preds = append(in.Preds, p.label())
			p.expectPunct("]")
		}
	case op == OpSelect:
		in.Typ = p.parseType()
		p.operands(in, I1, in.Typ, in.Typ)
	case op == OpCall:
		in.Typ = p.parseType()
		line := p.lex.tok.line
		callee := p.take(tGlobal, "callee")
		if in.Callee = p.funcs[callee]; in.Callee == nil {
			p.funcFixups = append(p.funcFixups, fixup{instr: in, arg: calleeArg, name: callee, line: line})
		}
		p.expectPunct("(")
		p.list(")", func() { p.appendOperand(in, p.parseType()) })
	case op == OpBr:
		in.Succs = []*Block{p.label()}
	case op == OpCondBr:
		p.operands(in, I1)
		p.expectPunct(",")
		then := p.label()
		p.expectPunct(",")
		in.Succs = []*Block{then, p.label()}
	case op == OpRet:
		if p.isIdent("void") {
			p.lex.advance()
		} else {
			p.operands(in, p.parseType())
		}
	case op == OpGuard:
		kind := p.take(tIdent, "guard kind")
		if in.Kind, ok = guardKindByName[kind]; !ok {
			failf("unknown guard kind %q", kind)
		}
		p.operands(in, Ptr, anyInt)
	}
	if name != "" && (!op.HasResult() || in.Typ == Void) {
		// The printer drops the name of an instruction without a value, so
		// later uses of it could not be printed back.
		failf("%s yields no value to name %%%s", opName, name)
	}
	return in
}
