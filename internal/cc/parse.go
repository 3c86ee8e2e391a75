package cc

import (
	"fmt"
	"strconv"
)

// Parse parses CARAT-C source into an AST. The error is the first in source
// order: a bad character ends the token stream where it stands, and the lexer
// reaches it only when the parser looks at it, so whatever the parser says
// from then on is about the early end and the lexer's error stands for it.
func Parse(src string) (*Program, error) {
	p := &parser{lex: lexer{src: src, line: 1}}
	prog, err := p.program()
	if p.lex.err != nil {
		return nil, p.lex.err
	}
	if err != nil {
		return nil, fmt.Errorf("cc: line %d: %w", p.tok.line, err)
	}
	return prog, nil
}

// parser pulls tokens from the lexer when it looks at them: tok is the one
// token of look-ahead, scanned by the first cur after a next (have), never
// before — a token the parser consumed and then rejects is reported without
// the lexer having run past it.
type parser struct {
	lex   lexer
	tok   token
	have  bool
	depth int // of the statement or expression being parsed, as an AST
}

// maxDepth bounds how deep the AST gets: this parser recurses once per level
// of brackets, blocks and unary operators, every walker of the AST once per
// level of the tree (a chain of binary operators included, which binExpr
// builds left-deep in a loop), and a megabyte of "(" or "1+" must be an
// error, not a gigabyte of stack. Whoever calls nest restores p.depth.
const maxDepth = 1000

func (p *parser) nest() error {
	if p.depth++; p.depth > maxDepth {
		return fmt.Errorf("nesting deeper than %d", maxDepth)
	}
	return nil
}

func (p *parser) cur() token {
	if !p.have {
		p.tok, p.have = p.lex.scan(), true
	}
	return p.tok
}

func (p *parser) next() token { t := p.cur(); p.have = false; return t }

func (p *parser) accept(text string) bool {
	if t := p.cur(); t.kind == tPunct && t.text == text {
		p.have = false
		return true
	}
	return false
}

func (p *parser) acceptKw(kw string) bool {
	if t := p.cur(); t.kind == tIdent && t.text == kw {
		p.have = false
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return fmt.Errorf("expected %q, got %q", text, p.cur().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	if p.cur().kind != tIdent {
		return "", fmt.Errorf("expected identifier, got %q", p.cur().text)
	}
	return p.next().text, nil
}

func (p *parser) program() (*Program, error) {
	prog := &Program{}
	for p.cur().kind != tEOF {
		switch {
		case p.acceptKw("global"):
			g, err := p.globalDecl()
			if err != nil {
				return nil, err
			}
			prog.Globals = append(prog.Globals, g)
		case p.acceptKw("func"):
			f, err := p.funcDecl()
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, f)
		default:
			return nil, fmt.Errorf("expected 'global' or 'func', got %q", p.cur().text)
		}
	}
	return prog, nil
}

func (p *parser) typeName() (TypeName, error) {
	if p.accept("[") {
		if p.cur().kind != tInt {
			return TypeName{}, fmt.Errorf("expected array length")
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil || n <= 0 {
			return TypeName{}, fmt.Errorf("bad array length")
		}
		if err := p.expect("]"); err != nil {
			return TypeName{}, err
		}
		elem, err := p.ident()
		if err != nil {
			return TypeName{}, err
		}
		if elem != "int" && elem != "float" && elem != "ptr" {
			return TypeName{}, fmt.Errorf("bad array element type %q", elem)
		}
		return TypeName{Kind: elem, ArrLen: n}, nil
	}
	name, err := p.ident()
	if err != nil {
		return TypeName{}, err
	}
	switch name {
	case "int", "float", "ptr":
		return TypeName{Kind: name}, nil
	}
	return TypeName{}, fmt.Errorf("unknown type %q", name)
}

func (p *parser) globalDecl() (*GlobalDecl, error) {
	line := p.cur().line
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	tn, err := p.typeName()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return &GlobalDecl{Name: name, Type: tn, Line: line}, nil
}

func (p *parser) funcDecl() (*FuncDecl, error) {
	line := p.cur().line
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var params []Param
	for !p.accept(")") {
		if len(params) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		pn, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		tn, err := p.typeName()
		if err != nil {
			return nil, err
		}
		if tn.ArrLen != 0 {
			return nil, fmt.Errorf("array parameters are not supported; pass a ptr")
		}
		params = append(params, Param{Name: pn, Type: tn})
	}
	ret := TypeName{}
	if p.accept(":") {
		r, err := p.typeName()
		if err != nil {
			return nil, err
		}
		ret = r
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Name: name, Params: params, Ret: ret, Body: body, Line: line}, nil
}

func (p *parser) block() (*Block, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &Block{}
	for !p.accept("}") {
		if p.cur().kind == tEOF {
			return nil, fmt.Errorf("unexpected end of file in block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

func (p *parser) stmt() (Stmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	switch {
	case p.cur().kind == tPunct && p.cur().text == "{":
		return p.block()

	case p.acceptKw("var"):
		line := p.cur().line
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &VarStmt{Name: name, Init: e, Line: line}, nil

	case p.acceptKw("if"):
		return p.ifStmt()

	case p.acceptKw("while"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body}, nil

	case p.acceptKw("for"):
		return p.forStmt()

	case p.acceptKw("return"):
		line := p.cur().line
		if p.accept(";") {
			return &ReturnStmt{Line: line}, nil
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ReturnStmt{Value: e, Line: line}, nil
	}

	// Assignment or expression statement.
	return p.simpleStmt(true)
}

// simpleStmt parses `lvalue = expr` or a bare expression; when wantSemi it
// also consumes the trailing semicolon.
func (p *parser) simpleStmt(wantSemi bool) (Stmt, error) {
	line := p.cur().line
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	var st Stmt
	if p.accept("=") {
		switch e.(type) {
		case *Ident, *IndexExpr:
		default:
			return nil, fmt.Errorf("invalid assignment target")
		}
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		st = &AssignStmt{Target: e, Value: v, Line: line}
	} else {
		st = &ExprStmt{X: e}
	}
	if wantSemi {
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then}
	if p.acceptKw("else") {
		if p.acceptKw("if") {
			els, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			st.Else = els
		} else {
			els, err := p.block()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
	}
	return st, nil
}

func (p *parser) forStmt() (Stmt, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	f := &ForStmt{}
	if !p.accept(";") {
		if p.acceptKw("var") {
			line := p.cur().line
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expect("="); err != nil {
				return nil, err
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			f.Init = &VarStmt{Name: name, Init: e, Line: line}
		} else {
			s, err := p.simpleStmt(false)
			if err != nil {
				return nil, err
			}
			f.Init = s
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if !p.accept(";") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		f.Cond = cond
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if !p.accept(")") {
		s, err := p.simpleStmt(false)
		if err != nil {
			return nil, err
		}
		f.Post = s
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

// Expression parsing: precedence climbing.
var precedence = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) expr() (Expr, error) { return p.binExpr(1) }

func (p *parser) binExpr(minPrec int) (Expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	d := p.depth
	for {
		t := p.cur()
		prec, ok := precedence[t.text]
		if t.kind != tPunct || !ok || prec < minPrec {
			p.depth = d
			return lhs, nil
		}
		if err := p.nest(); err != nil { // lhs goes one level down
			return nil, err
		}
		p.next()
		rhs, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinExpr{Op: t.text, L: lhs, R: rhs, Line: t.line}
	}
}

func (p *parser) unary() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	if p.accept("-") {
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: "-", X: x}, nil
	}
	if p.accept("!") {
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: "!", X: x}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		if p.accept("[") {
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &IndexExpr{Base: e, Idx: idx, Line: p.cur().line}
			continue
		}
		return e, nil
	}
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", t.text)
		}
		return &IntLit{Val: v}, nil
	case t.kind == tFloat:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", t.text)
		}
		return &FloatLit{Val: v}, nil
	case t.kind == tIdent:
		p.next()
		if p.accept("(") {
			call := &CallExpr{Name: t.text, Line: t.line}
			for !p.accept(")") {
				if len(call.Args) > 0 {
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
			}
			return call, nil
		}
		return &Ident{Name: t.text, Line: t.line}, nil
	case t.kind == tPunct && t.text == "(":
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, fmt.Errorf("unexpected token %q", t.text)
}
