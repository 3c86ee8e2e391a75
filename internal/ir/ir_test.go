package ir

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTypeSizes(t *testing.T) {
	cases := []struct {
		t    *Type
		want int64
	}{
		{I1, 1}, {I8, 1}, {I16, 2}, {I32, 4}, {I64, 8}, {F64, 8}, {Ptr, 8},
		{ArrayOf(F64, 10), 80},
		{ArrayOf(ArrayOf(I32, 4), 3), 48},
		{StructOf(I64, Ptr, I8), 17},
		{StructOf(), 0},
		{Void, 0},
	}
	for _, c := range cases {
		if got := c.t.Size(); got != c.want {
			t.Errorf("Size(%s) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestTypeString(t *testing.T) {
	cases := map[string]*Type{
		"i1": I1, "i64": I64, "f64": F64, "ptr": Ptr, "void": Void,
		"[4 x f64]":      ArrayOf(F64, 4),
		"{i64, ptr}":     StructOf(I64, Ptr),
		"[2 x {i8}]":     ArrayOf(StructOf(I8), 2),
		"f64 (i32, ptr)": FuncOf(F64, I32, Ptr),
	}
	for want, typ := range cases {
		if got := typ.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestTypeEqual(t *testing.T) {
	if !ArrayOf(F64, 4).Equal(ArrayOf(F64, 4)) {
		t.Error("structurally identical arrays not Equal")
	}
	if ArrayOf(F64, 4).Equal(ArrayOf(F64, 5)) {
		t.Error("different lengths Equal")
	}
	if StructOf(I64).Equal(StructOf(I32)) {
		t.Error("different fields Equal")
	}
	if I32.Equal(I64) {
		t.Error("i32 equals i64")
	}
	if !FuncOf(Void, Ptr).Equal(FuncOf(Void, Ptr)) {
		t.Error("identical func types not Equal")
	}
}

func TestFieldOffset(t *testing.T) {
	s := StructOf(I64, I8, F64, Ptr)
	wants := []int64{0, 8, 9, 17}
	for i, w := range wants {
		if got := s.FieldOffset(i); got != w {
			t.Errorf("FieldOffset(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestConstRef(t *testing.T) {
	cases := []struct {
		c    *Const
		want string
	}{
		{ConstInt(I64, 42), "42"},
		{ConstInt(I32, -7), "-7"},
		{ConstFloat(1.5), "1.5"},
		{ConstFloat(2), "2.0"},
		{ConstNull(), "null"},
	}
	for _, c := range cases {
		if got := c.c.Ref(); got != c.want {
			t.Errorf("Ref() = %q, want %q", got, c.want)
		}
	}
}

// buildLoopSum constructs: func sum(n) { s=0; for i in 0..n { s += a[i] }; return s }
func buildLoopSum(t testing.TB) *Module {
	m := NewModule("test")
	g := m.AddGlobal("a", ArrayOf(I64, 64))
	_ = g
	f := m.AddFunc("sum", I64, &Param{Name: "n", Typ: I64})
	b := NewBuilder(f)
	acc := b.Alloca(I64, nil)
	b.Store(b.I64(0), acc)
	b.Loop(b.I64(0), f.Params[0], b.I64(1), func(i Value) {
		p := b.GEP(I64, m.Global("a"), i)
		x := b.Load(I64, p)
		cur := b.Load(I64, acc)
		b.Store(b.Add(cur, x), acc)
	})
	b.Ret(b.Load(I64, acc))
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return m
}

func TestBuilderLoopVerifies(t *testing.T) {
	buildLoopSum(t)
}

func TestRoundTrip(t *testing.T) {
	m := buildLoopSum(t)
	text1 := m.String()
	m2, err := Parse(text1)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, text1)
	}
	if err := m2.Verify(); err != nil {
		t.Fatalf("Verify after parse: %v", err)
	}
	text2 := m2.String()
	if text1 != text2 {
		t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                     // no module
		`module "m" func`,      // incomplete func
		`module "m" global @g`, // missing type
		`module "m" func @f() -> i64 { entry: ret i64 %undef }`, // undefined value
		`module "m" func @f() -> i64 { entry: br ^nowhere }`,    // undefined label... label created but never defined
		`module "m" func @f() -> i64 { entry: frobnicate }`,     // unknown op
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

// TestParseIntegerLiteralRange: a literal must fit its type read either
// way, signed or unsigned: -2^(b-1) … 2^b-1.
func TestParseIntegerLiteralRange(t *testing.T) {
	src := func(typ, lit string) string {
		return fmt.Sprintf("module \"m\"\nfunc @f() -> %[1]s {\ne:\n  ret %[1]s %[2]s\n}\n", typ, lit)
	}
	for _, c := range []struct {
		typ, lit string
		ok       bool
	}{
		{"i1", "-1", true}, {"i1", "1", true}, {"i1", "2", false}, {"i1", "-2", false},
		{"i8", "255", true}, {"i8", "-128", true}, {"i8", "256", false}, {"i8", "-129", false}, {"i8", "1000", false},
		{"i16", "65535", true}, {"i16", "65536", false}, {"i16", "-32769", false},
		{"i32", "4294967295", true}, {"i32", "-2147483648", true}, {"i32", "4294967296", false},
		{"i64", "-9223372036854775808", true}, {"i64", "9223372036854775807", true},
	} {
		_, err := Parse(src(c.typ, c.lit))
		if c.ok && err != nil {
			t.Errorf("%s %s: %v", c.typ, c.lit, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "line 4: integer literal "+c.lit+" out of range for "+c.typ)) {
			t.Errorf("%s %s: got error %v, want line 4's out-of-range error", c.typ, c.lit, err)
		}
	}
}

// TestParseErrorsNameTheirLine: an error names the line of the token at
// fault, not the line the lexer has read ahead to — a bad token last on its
// line, or a use resolved only when its function or the module ends.
func TestParseErrorsNameTheirLine(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"module \"m\"\nfunc @f() -> i64 {\ne:\n  ret i64 99999999999999999999\n}\n", "line 4: strconv.ParseInt"},
		{"module \"m\"\nfunc @f(%x: i64) -> i64 {\ne:\n  %z = add i64 %y, 1\n  ret i64 %z\n}\n", "line 4: undefined value %y"},
		{"module \"m\"\nfunc @f() -> void {\ne:\n  br ^nowhere\n}\n", "line 4: branch to undefined label ^nowhere"},
		{"module \"m\"\nfunc @f() -> void {\ne:\n  call void @g()\n  ret void\n}\n", "line 4: undefined symbol @g"},
		{"module \"m\"\nglobal @g : i65\nfunc @f() -> void {\ne:\n  ret void\n}\n", `line 2: unknown type "i65"`},
		{"module \"m\"\nfunc @f(%p: ptr) -> i64 {\ne:\n  ret i64 %p\n}\n", "line 4: %p has type ptr, not i64"},
		{"module \"m\"\nfunc @f() -> i64 {\ne:\n  %z = add i64 1\n  ret i64 %z\n}\n", `line 5: expected ",", got "ret"`},
	} {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: got error %v, want %q", c.src, err, c.want)
		}
	}
}

// TestNarrowLiteralSpellingsAreOneConstant: an i8 spelled by its unsigned
// value (255) and by its signed one (-1) parses to one constant, stored in
// the register encoding, and prints the same.
func TestNarrowLiteralSpellingsAreOneConstant(t *testing.T) {
	parse := func(v int) (*Module, *Const) {
		m := MustParse(fmt.Sprintf("module \"m\"\nfunc @f() -> i8 {\ne:\n  ret i8 %d\n}\n", v))
		return m, m.Func("f").Blocks[0].Instrs[0].Args[0].(*Const)
	}
	for v := 0; v < 256; v++ {
		mu, cu := parse(v)
		ms, cs := parse(int(int8(v)))
		if *cu != *cs || cu.Int != int64(int8(v)) || mu.String() != ms.String() {
			t.Errorf("i8 %d parses to %+v printing %q, i8 %d to %+v printing %q", v, *cu, mu.String(), int8(v), *cs, ms.String())
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `module "c"
; a comment line
func @f(%x: i64) -> i64 {
entry: ; trailing comment
  %y = add i64 %x, 1
  ret i64 %y
}`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if m.Func("f") == nil || m.Func("f").NumInstrs() != 2 {
		t.Error("comment parsing corrupted function")
	}
}

func TestParsePhiForwardRef(t *testing.T) {
	src := `module "m"
func @f(%n: i64) -> i64 {
entry:
  br ^head
head:
  %i = phi i64 [0, ^entry], [%next, ^head]
  %next = add i64 %i, 1
  %c = icmp slt i64 %next, %n
  condbr %c, ^head, ^done
done:
  ret i64 %i
}`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	phi := m.Func("f").Blocks[1].Instrs[0]
	if phi.Op != OpPhi || len(phi.Args) != 2 {
		t.Fatalf("phi malformed: %s", phi)
	}
	if phi.Args[1].Ref() != "%next" {
		t.Errorf("forward ref not resolved: %s", phi.Args[1].Ref())
	}
}

func TestVerifyCatchesBadIR(t *testing.T) {
	// Unterminated block.
	m := NewModule("v")
	f := m.AddFunc("f", Void)
	f.NewBlock("entry")
	if err := m.Verify(); err == nil {
		t.Error("Verify accepted unterminated block")
	}

	// Type mismatch in add.
	m2 := NewModule("v2")
	f2 := m2.AddFunc("f", Void)
	b := NewBuilder(f2)
	b.Blk.Append(&Instr{Op: OpAdd, Name: "x", Typ: I64, Args: []Value{ConstInt(I64, 1), ConstInt(I32, 2)}})
	b.Ret(nil)
	if err := m2.Verify(); err == nil {
		t.Error("Verify accepted mismatched add operands")
	}

	// Call arity mismatch.
	m3 := NewModule("v3")
	callee := m3.AddFunc("g", Void, &Param{Name: "x", Typ: I64})
	f3 := m3.AddFunc("f", Void)
	b3 := NewBuilder(f3)
	b3.Blk.Append(&Instr{Op: OpCall, Typ: Void, Callee: callee})
	b3.Ret(nil)
	if err := m3.Verify(); err == nil {
		t.Error("Verify accepted call arity mismatch")
	}

	// Duplicate global.
	m4 := NewModule("v4")
	m4.AddGlobal("g", I64)
	m4.AddGlobal("g", I64)
	if err := m4.Verify(); err == nil {
		t.Error("Verify accepted duplicate global")
	}
}

// TestVerifyOwnsExecutableShapes: "which IR is executable" is decided here,
// once, before anything is signed or lowered. The three modules under
// testdata/hostile parse, and at the commit before this test each took down
// whichever engine finally reached it — and caratd with it — because nothing
// upstream had said no. Each must be refused by name; its nearest legal
// neighbour must still verify.
func TestVerifyOwnsExecutableShapes(t *testing.T) {
	cases := []struct {
		file      string // under testdata/hostile
		wantErr   string // the offending instruction, as the error names it
		neighbour string // the same function body with the shape made legal
	}{
		{"aggregate_access.cir", "%v = load [3 x i64], @s", `
  %v = load i64, @s
  store i64 %v, @d
  ret i64 0`},
		{"struct_index_range.cir", "%p = gep {i64, i64}, @s, 0, 7", `
  %p = gep {i64, i64}, @s, 0, 1
  %v = load i64, %p
  ret i64 %v`},
		{"struct_index_dynamic.cir", "%p = gep {i64, i64}, @s, 0, %i", `
  %z = load i64, @n
  %i = and i64 %z, 1
  %p = gep [2 x i64], @s, 0, %i
  %v = load i64, %p
  ret i64 %v`},
	}
	for _, c := range cases {
		src, err := os.ReadFile(filepath.Join("testdata", "hostile", c.file))
		if err != nil {
			t.Fatal(err)
		}
		m, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: must parse (the shape is Verify's to refuse): %v", c.file, err)
		}
		if err := m.Verify(); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: Verify = %v, want an error naming %q", c.file, err, c.wantErr)
		}
		header, _, _ := strings.Cut(string(src), "entry:")
		if err := MustParse(header + "entry:" + c.neighbour + "\n}").Verify(); err != nil {
			t.Errorf("%s: the legal neighbour no longer verifies: %v", c.file, err)
		}
	}

	// Found by FuzzIRExecute (internal/vm): the tracking pass and the VM's
	// builtins index a runtime entry point's operands by position, and the
	// engines disagreed on a phi that control reaches along no edge.
	for src, wantErr := range map[string]string{
		"module \"m\"\nfunc @malloc() -> ptr\nfunc @main() -> i64 {\nentry:\n  %p = call ptr @malloc()\n  ret i64 0\n}": "@malloc is a runtime entry point: its signature must be ptr (i64)",
		"module \"m\"\nfunc @main() -> i64 {\nentry:\n  %x = phi i64 [1, ^entry]\n  br ^entry\n}":                       "phi in the entry block",
	} {
		if err := MustParse(src).Verify(); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("Verify = %v, want %q, for:\n%s", err, wantErr, src)
		}
	}

	// Shapes no text can spell: an opcode outside the defined set, and a phi
	// that lists one predecessor twice and another not at all.
	m := NewModule("undefined-op")
	b := NewBuilder(m.AddFunc("f", Void))
	b.Blk.Append(&Instr{Op: OpGuard + 1, Typ: Void})
	b.Ret(nil)
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "undefined opcode") {
		t.Errorf("opcode past OpGuard: Verify = %v", err)
	}
	m = MustParse(`module "phi"
func @f(%c: i1) -> i64 {
entry:
  condbr %c, ^a, ^b
a:
  br ^join
b:
  br ^join
join:
  %x = phi i64 [1, ^a], [2, ^b]
  ret i64 %x
}`)
	phi := m.Func("f").Blocks[3].Instrs[0]
	phi.Preds[1] = phi.Preds[0]
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "no incoming for predecessor ^b") {
		t.Errorf("phi without an incoming for ^b: Verify = %v", err)
	}
}

// TestVerifyHostileEdges: a branch out of the function and a phi whose
// incoming blocks are not the block's predecessors are refused whether or not
// the function holds other phis, and wherever they sit relative to the damage
// — verifyFunc builds the predecessor sets at the first phi it meets, and
// checks successors without any set at all, so each rule is exercised with
// the sets absent, built earlier, and built by the offending phi itself.
func TestVerifyHostileEdges(t *testing.T) {
	const phiFree = `module "m"
func @other() -> void {
entry:
  br ^elsewhere
elsewhere:
  ret void
}
func @f(%c: i1) -> i64 {
entry:
  condbr %c, ^a, ^b
a:
  br ^join
b:
  br ^join
join:
  ret i64 0
}`
	// The same function with a loop phi ahead of the diamond and a phi in the
	// join behind it.
	const phiful = `module "m"
func @other() -> void {
entry:
  br ^elsewhere
elsewhere:
  ret void
}
func @f(%c: i1) -> i64 {
entry:
  br ^spin
spin:
  %i = phi i64 [0, ^entry], [%i, ^spin]
  condbr %c, ^spin, ^fork
fork:
  condbr %c, ^a, ^b
a:
  br ^join
b:
  br ^join
join:
  %x = phi i64 [1, ^a], [2, ^b]
  ret i64 %x
}`
	block := func(f *Func, name string) *Block {
		for _, b := range f.Blocks {
			if b.Name == name {
				return b
			}
		}
		t.Fatalf("no block ^%s in @%s", name, f.Name)
		return nil
	}
	cases := []struct {
		name, src, want string
		damage          func(m *Module, f *Func)
	}{
		{"branch out, no phis", phiFree, "successor ^elsewhere not in function", func(m *Module, f *Func) {
			block(f, "a").Term().Succs[0] = block(m.Func("other"), "elsewhere")
		}},
		{"branch out, before the first phi", phiful, "successor ^elsewhere not in function", func(m *Module, f *Func) {
			block(f, "entry").Term().Succs[0] = block(m.Func("other"), "elsewhere")
		}},
		{"branch out, after a phi", phiful, "successor ^elsewhere not in function", func(m *Module, f *Func) {
			block(f, "fork").Term().Succs[1] = block(m.Func("other"), "elsewhere")
		}},
		{"first phi names a non-predecessor", phiful, "phi incoming ^fork is not a predecessor", func(m *Module, f *Func) {
			block(f, "spin").Instrs[0].Preds[0] = block(f, "fork")
		}},
		{"later phi names a non-predecessor", phiful, "phi incoming ^entry is not a predecessor", func(m *Module, f *Func) {
			block(f, "join").Instrs[0].Preds[0] = block(f, "entry")
		}},
		{"later phi lists one predecessor twice", phiful, "no incoming for predecessor ^b", func(m *Module, f *Func) {
			phi := block(f, "join").Instrs[0]
			phi.Preds[1] = phi.Preds[0]
		}},
		{"only phi misses an edge", phiFree, "phi has 1 incoming, block has 2 preds", func(m *Module, f *Func) {
			join := block(f, "join")
			phi := &Instr{Op: OpPhi, Name: "x", Typ: I64, Args: []Value{ConstInt(I64, 1)}, Preds: []*Block{block(f, "a")}}
			join.Insert(0, phi)
		}},
		{"parameter out of place", phiFree, "parameter 0 (%c) has Idx 1", func(m *Module, f *Func) {
			f.Params[0].Idx = 1
		}},
		{"another function's parameter as an operand", phiFree, "operand %x is not a parameter of @f", func(m *Module, f *Func) {
			block(f, "entry").Term().Args[0] = &Param{Name: "x", Typ: I1}
		}},
		// The dense numbering per-function tables index by (DESIGN.md "Dense
		// numbering"): each way of breaking it names function and block.
		{"instruction put into a block around its methods", phiFree, "@f/^a: br ^join: ID 0, want 1 to 4", func(m *Module, f *Func) {
			a := block(f, "a")
			a.Instrs = []*Instr{{Op: OpBr, Typ: Void, Succs: a.Term().Succs, Block: a}}
		}},
		{"two instructions with one ID", phiful, "@f/^fork: condbr %c, ^a, ^b: ID 1 is another instruction's too", func(m *Module, f *Func) {
			block(f, "fork").Term().ID = block(f, "entry").Term().ID
		}},
		{"ID the function never handed out", phiFree, "@f/^b: br ^join: ID 5, want 1 to 4", func(m *Module, f *Func) {
			block(f, "b").Term().ID = int32(f.NumIDs())
		}},
		{"block out of position", phiFree, "@f/^b: block 1 has Idx 2", func(m *Module, f *Func) {
			f.Blocks[1], f.Blocks[2] = f.Blocks[2], f.Blocks[1]
		}},
		{"only phi names a non-predecessor", phiFree, "phi incoming ^entry is not a predecessor", func(m *Module, f *Func) {
			join := block(f, "join")
			phi := &Instr{Op: OpPhi, Name: "x", Typ: I64, Args: []Value{ConstInt(I64, 1), ConstInt(I64, 2)},
				Preds: []*Block{block(f, "a"), block(f, "entry")}}
			join.Insert(0, phi)
		}},
	}
	for _, src := range []string{phiFree, phiful} {
		if err := MustParse(src).Verify(); err != nil {
			t.Fatalf("undamaged module does not verify: %v", err)
		}
	}
	for _, c := range cases {
		m := MustParse(c.src)
		c.damage(m, m.Func("f"))
		if err := m.Verify(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Verify = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestBlockInsert: a batch lands in order at the index given, at the head,
// in the middle and at the end, owned by the block and numbered in order.
func TestBlockInsert(t *testing.T) {
	m := NewModule("b")
	f := m.AddFunc("f", Void)
	b := NewBuilder(f)
	i1 := b.Add(b.I64(1), b.I64(2))
	i2 := b.Add(b.I64(3), b.I64(4))
	add := func(name string) *Instr {
		return &Instr{Op: OpAdd, Name: name, Typ: I64, Args: []Value{ConstInt(I64, 5), ConstInt(I64, 6)}}
	}
	h, m1, m2, e := add("h"), add("m1"), add("m2"), add("e")
	b.Blk.Insert(1, m1, m2)
	b.Blk.Insert(0, h)
	b.Blk.Insert(len(b.Blk.Instrs), e)
	want := []*Instr{h, i1, m1, m2, i2, e}
	if !slices.Equal(b.Blk.Instrs, want) {
		t.Fatalf("block holds %v, want %v", b.Blk.Instrs, want)
	}
	for k, in := range []*Instr{m1, m2, h, e} {
		if in.Block != b.Blk || in.ID != int32(3+k) {
			t.Errorf("%%%s: block %v, ID %d; want the block and ID %d", in.Name, in.Block, in.ID, 3+k)
		}
	}
}

func TestPhisRun(t *testing.T) {
	m := MustParse(`module "m"
func @f(%n: i64) -> i64 {
entry:
  br ^head
head:
  %a = phi i64 [0, ^entry], [%a, ^head]
  %b = phi i64 [1, ^entry], [%b, ^head]
  %c = icmp slt i64 %a, %n
  condbr %c, ^head, ^out
out:
  ret i64 %b
}`)
	head := m.Func("f").Blocks[1]
	if got := len(head.Phis()); got != 2 {
		t.Errorf("Phis() = %d, want 2", got)
	}
}

func TestDeclareFuncIdempotent(t *testing.T) {
	m := NewModule("d")
	f1 := m.DeclareFunc(FnMalloc, Ptr, I64)
	f2 := m.DeclareFunc(FnMalloc, Ptr, I64)
	if f1 != f2 {
		t.Error("DeclareFunc created a duplicate")
	}
	if !f1.IsDecl() {
		t.Error("declared function has a body")
	}
}

func TestGlobalInitRoundTrip(t *testing.T) {
	m := NewModule("g")
	g := m.AddGlobal("data", ArrayOf(I8, 4))
	g.Init = []byte{0xde, 0xad, 0xbe, 0xef}
	g.PtrInit = []int64{0}
	m2, err := Parse(m.String())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	g2 := m2.Global("data")
	if g2 == nil || len(g2.Init) != 4 || g2.Init[0] != 0xde || g2.Init[3] != 0xef {
		t.Fatalf("initializer lost in round trip: %+v", g2)
	}
	if len(g2.PtrInit) != 1 || g2.PtrInit[0] != 0 {
		t.Fatalf("ptr offsets lost in round trip: %+v", g2.PtrInit)
	}
}

// Property: integer constants of any value round-trip through print+parse
// in an instruction context.
func TestQuickConstRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		m := NewModule("q")
		fn := m.AddFunc("f", I64)
		b := NewBuilder(fn)
		b.Ret(b.Add(b.I64(v), b.I64(0)))
		m2, err := Parse(m.String())
		if err != nil {
			return false
		}
		in := m2.Func("f").Blocks[0].Instrs[0]
		c, ok := in.Args[0].(*Const)
		return ok && c.Int == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: struct size equals sum of field sizes for arbitrary small shapes.
func TestQuickStructSize(t *testing.T) {
	prims := []*Type{I1, I8, I16, I32, I64, F64, Ptr}
	f := func(picks []uint8) bool {
		if len(picks) > 12 {
			picks = picks[:12]
		}
		var fields []*Type
		var want int64
		for _, p := range picks {
			ft := prims[int(p)%len(prims)]
			fields = append(fields, ft)
			want += ft.Size()
		}
		return StructOf(fields...).Size() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInstrStringForms(t *testing.T) {
	m := buildLoopSum(t)
	text := m.String()
	for _, want := range []string{"alloca i64", "gep i64, @a", "load i64", "store i64", "phi i64", "icmp slt", "condbr", "ret i64"} {
		if !strings.Contains(text, want) {
			t.Errorf("printed module missing %q:\n%s", want, text)
		}
	}
}
