package analysis

import (
	"slices"
	"testing"

	"carat/internal/ir"
)

// diamond builds:  entry -> {left, right} -> merge -> exit
func diamond(t testing.TB) (*ir.Module, *ir.Func) {
	m := ir.MustParse(`module "d"
func @f(%c: i1) -> i64 {
entry:
  condbr %c, ^left, ^right
left:
  br ^merge
right:
  br ^merge
merge:
  %x = phi i64 [1, ^left], [2, ^right]
  br ^exit
exit:
  ret i64 %x
}`)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	return m, m.Func("f")
}

func loopFn(t testing.TB) (*ir.Module, *ir.Func) {
	m := ir.MustParse(`module "l"
global @a : [128 x i64]
func @f(%n: i64) -> i64 {
entry:
  br ^header
header:
  %i = phi i64 [0, ^entry], [%next, ^latch]
  %cmp = icmp slt i64 %i, %n
  condbr %cmp, ^body, ^exit
body:
  %p = gep i64, @a, %i
  %v = load i64, %p
  br ^latch
latch:
  %next = add i64 %i, 1
  br ^header
exit:
  ret i64 0
}`)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	return m, m.Func("f")
}

func blockByName(f *ir.Func, name string) *ir.Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

func TestCFGRPO(t *testing.T) {
	_, f := diamond(t)
	c := NewCFG(f)
	if len(c.RPO) != 5 {
		t.Fatalf("RPO has %d blocks, want 5", len(c.RPO))
	}
	if c.RPO[0] != f.Entry() {
		t.Error("RPO does not start at entry")
	}
	merge := blockByName(f, "merge")
	if len(c.PredsOf(merge)) != 2 {
		t.Errorf("merge has %d preds, want 2", len(c.PredsOf(merge)))
	}
	// entry must come before everything; exit last.
	if c.RPONum(blockByName(f, "exit")) != 4 {
		t.Errorf("exit RPO position = %d, want 4", c.RPONum(blockByName(f, "exit")))
	}
}

func TestCFGUnreachable(t *testing.T) {
	m := ir.MustParse(`module "u"
func @f() -> i64 {
entry:
  ret i64 0
dead:
  ret i64 1
}`)
	f := m.Func("f")
	c := NewCFG(f)
	if c.Reachable(blockByName(f, "dead")) {
		t.Error("dead block reported reachable")
	}
	if !c.Reachable(f.Entry()) {
		t.Error("entry not reachable")
	}
}

func TestDominators(t *testing.T) {
	_, f := diamond(t)
	c := NewCFG(f)
	dom := NewDomTree(c)
	entry := f.Entry()
	left := blockByName(f, "left")
	right := blockByName(f, "right")
	merge := blockByName(f, "merge")
	exit := blockByName(f, "exit")

	if dom.IDom(merge) != entry {
		t.Errorf("idom(merge) = %v, want entry", dom.IDom(merge))
	}
	if dom.IDom(exit) != merge {
		t.Errorf("idom(exit) = %v, want merge", dom.IDom(exit))
	}
	if !dom.Dominates(entry, exit) || !dom.Dominates(merge, exit) {
		t.Error("dominance facts wrong")
	}
	if dom.Dominates(left, merge) || dom.Dominates(right, merge) {
		t.Error("branch arm should not dominate merge")
	}
	if !dom.Dominates(entry, entry) {
		t.Error("dominance should be reflexive")
	}
}

func TestFindLoops(t *testing.T) {
	_, f := loopFn(t)
	c := NewCFG(f)
	dom := NewDomTree(c)
	lf := FindLoops(c, dom)
	if len(lf.Top) != 1 {
		t.Fatalf("found %d top loops, want 1", len(lf.Top))
	}
	l := lf.Top[0]
	if l.Header != blockByName(f, "header") {
		t.Error("wrong loop header")
	}
	for _, name := range []string{"header", "body", "latch"} {
		if !l.Contains(blockByName(f, name)) {
			t.Errorf("loop missing block %s", name)
		}
	}
	if l.Contains(blockByName(f, "exit")) || l.Contains(f.Entry()) {
		t.Error("loop includes non-loop block")
	}
	if ph := l.Preheader(c); ph != f.Entry() {
		t.Errorf("preheader = %v, want entry", ph)
	}
	exits := l.Exits()
	if len(exits) != 1 || exits[0] != blockByName(f, "exit") {
		t.Errorf("exits = %v", exits)
	}
	if l.Depth != 1 {
		t.Errorf("depth = %d, want 1", l.Depth)
	}
}

func TestNestedLoops(t *testing.T) {
	m := ir.MustParse(`module "n"
func @f(%n: i64) -> i64 {
entry:
  br ^oh
oh:
  %i = phi i64 [0, ^entry], [%inext, ^olatch]
  %oc = icmp slt i64 %i, %n
  condbr %oc, ^ih, ^done
ih:
  %j = phi i64 [0, ^oh], [%jnext, ^ibody]
  %ic = icmp slt i64 %j, %n
  condbr %ic, ^ibody, ^olatch
ibody:
  %jnext = add i64 %j, 1
  br ^ih
olatch:
  %inext = add i64 %i, 1
  br ^oh
done:
  ret i64 0
}`)
	f := m.Func("f")
	c := NewCFG(f)
	lf := FindLoops(c, NewDomTree(c))
	if len(lf.Top) != 1 {
		t.Fatalf("top loops = %d, want 1", len(lf.Top))
	}
	outer := lf.Top[0]
	if len(outer.Subs) != 1 {
		t.Fatalf("outer has %d subs, want 1", len(outer.Subs))
	}
	inner := outer.Subs[0]
	if inner.Depth != 2 || outer.Depth != 1 {
		t.Errorf("depths: outer %d inner %d", outer.Depth, inner.Depth)
	}
	ih := blockByName(f, "ih")
	if lf.Innermost(ih) != inner {
		t.Error("innermost map wrong for inner header")
	}
	if got := len(lf.All()); got != 2 {
		t.Errorf("All() = %d loops, want 2", got)
	}
}

func TestDecomposePtr(t *testing.T) {
	m := ir.NewModule("t")
	g := m.AddGlobal("g", ir.ArrayOf(ir.I64, 16))
	f := m.AddFunc("f", ir.Void, &ir.Param{Name: "i", Typ: ir.I64})
	b := ir.NewBuilder(f)
	p1 := b.GEP(ir.I64, g, b.I64(3))
	p2 := b.GEP(ir.I64, p1, b.I64(2))
	p3 := b.GEP(ir.I64, g, f.Params[0])
	b.Ret(nil)

	base, off, exact := DecomposePtr(p2)
	if base != ir.Value(g) || off != 40 || !exact {
		t.Errorf("DecomposePtr(p2) = (%v, %d, %v), want (@g, 40, true)", base, off, exact)
	}
	base, _, exact = DecomposePtr(p3)
	if base != ir.Value(g) || exact {
		t.Errorf("DecomposePtr(p3) = (%v, _, %v), want (@g, false)", base, exact)
	}
}

func TestDecomposeStructGEP(t *testing.T) {
	m := ir.NewModule("t")
	st := ir.StructOf(ir.I64, ir.F64, ir.Ptr)
	g := m.AddGlobal("s", ir.ArrayOf(st, 8))
	f := m.AddFunc("f", ir.Void)
	b := ir.NewBuilder(f)
	// &s[2].field1  => 2*24 + 8 = 56
	p := b.GEP(st, g, b.I64(2), b.I64(1))
	b.Ret(nil)
	base, off, exact := DecomposePtr(p)
	if base != ir.Value(g) || off != 56 || !exact {
		t.Errorf("struct GEP decompose = (%v, %d, %v), want (@s, 56, true)", base, off, exact)
	}
}

func TestBaseObjectAA(t *testing.T) {
	m := ir.NewModule("t")
	g1 := m.AddGlobal("g1", ir.ArrayOf(ir.I64, 8))
	g2 := m.AddGlobal("g2", ir.ArrayOf(ir.I64, 8))
	f := m.AddFunc("f", ir.Void, &ir.Param{Name: "p", Typ: ir.Ptr})
	b := ir.NewBuilder(f)
	a1 := b.Alloca(ir.I64, nil)
	a2 := b.Alloca(ir.I64, nil)
	pg1a := b.GEP(ir.I64, g1, b.I64(0))
	pg1b := b.GEP(ir.I64, g1, b.I64(1))
	pg1c := b.GEP(ir.I64, g1, b.I64(0))
	b.Ret(nil)

	aa := &BaseObjectAA{}
	if r := aa.Alias(g1, 8, g2, 8); r != NoAlias {
		t.Errorf("distinct globals: %v, want no", r)
	}
	if r := aa.Alias(a1, 8, a2, 8); r != NoAlias {
		t.Errorf("distinct allocas: %v, want no", r)
	}
	if r := aa.Alias(a1, 8, g1, 8); r != NoAlias {
		t.Errorf("alloca vs global: %v, want no", r)
	}
	if r := aa.Alias(pg1a, 8, pg1b, 8); r != NoAlias {
		t.Errorf("disjoint offsets: %v, want no", r)
	}
	if r := aa.Alias(pg1a, 8, pg1c, 8); r != MustAlias {
		t.Errorf("same offset: %v, want must", r)
	}
	if r := aa.Alias(f.Params[0], 8, g1, 8); r != MayAlias {
		t.Errorf("unknown param vs global: %v, want may", r)
	}
}

func TestBaseObjectAAMallocs(t *testing.T) {
	m := ir.NewModule("t")
	malloc := m.DeclareFunc(ir.FnMalloc, ir.Ptr, ir.I64)
	f := m.AddFunc("f", ir.Void)
	b := ir.NewBuilder(f)
	h1 := b.Call(malloc, b.I64(64))
	h2 := b.Call(malloc, b.I64(64))
	g := m.AddGlobal("g", ir.I64)
	b.Ret(nil)
	aa := &BaseObjectAA{}
	if r := aa.Alias(h1, 8, h2, 8); r != NoAlias {
		t.Errorf("two mallocs: %v, want no", r)
	}
	if r := aa.Alias(h1, 8, g, 8); r != NoAlias {
		t.Errorf("malloc vs global: %v, want no", r)
	}
	if r := aa.Alias(h1, 8, h1, 8); r != MustAlias {
		t.Errorf("same malloc same offset: %v, want must", r)
	}
}

func TestPointsToAA(t *testing.T) {
	m := ir.MustParse(`module "p"
global @g1 : [8 x i64]
global @g2 : [8 x i64]
func @f(%c: i1, %unk: ptr) -> void {
entry:
  %a = alloca i64, 1
  condbr %c, ^l, ^r
l:
  %p1 = gep i64, @g1, 0
  br ^m
r:
  %p2 = gep i64, @g2, 0
  br ^m
m:
  %sel = phi ptr [%p1, ^l], [%p2, ^r]
  ret void
}`)
	f := m.Func("f")
	pt := NewPointsToAA(f)
	var sel, a ir.Value
	f.ForEachInstr(func(in *ir.Instr) {
		switch in.Name {
		case "sel":
			sel = in
		case "a":
			a = in
		}
	})
	// sel points to {g1,g2}; a points to its alloca: disjoint.
	if r := pt.Alias(sel, 8, a, 8); r != NoAlias {
		t.Errorf("phi(globals) vs alloca: %v, want no", r)
	}
	// sel may alias g1.
	if r := pt.Alias(sel, 8, m.Global("g1"), 8); r != MayAlias {
		t.Errorf("phi vs member global: %v, want may", r)
	}
	// unknown param must stay may.
	if r := pt.Alias(f.Params[1], 8, a, 8); r != MayAlias {
		t.Errorf("unknown vs alloca: %v, want may", r)
	}
}

func TestChainPrecedence(t *testing.T) {
	_, f := loopFn(t)
	ch := NewChain(f)
	m := ir.NewModule("x")
	g1 := m.AddGlobal("g1", ir.I64)
	g2 := m.AddGlobal("g2", ir.I64)
	if r := ch.Alias(g1, 8, g2, 8); r != NoAlias {
		t.Errorf("chain on distinct globals: %v", r)
	}
}

func TestInvariance(t *testing.T) {
	m := ir.MustParse(`module "inv"
global @a : [64 x i64]
global @lim : i64
func @f(%n: i64, %base: ptr) -> i64 {
entry:
  br ^header
header:
  %i = phi i64 [0, ^entry], [%next, ^latch]
  %cmp = icmp slt i64 %i, %n
  condbr %cmp, ^body, ^exit
body:
  %liminv = load i64, @lim
  %p = gep i64, @a, %i
  %v = load i64, %p
  store i64 %v, %p
  br ^latch
latch:
  %next = add i64 %i, 1
  br ^header
exit:
  ret i64 0
}`)
	f := m.Func("f")
	c := NewCFG(f)
	lf := FindLoops(c, NewDomTree(c))
	l := lf.Top[0]
	inv := NewInvariance(l, NewChain(f))

	vals := map[string]ir.Value{}
	f.ForEachInstr(func(in *ir.Instr) { vals[in.Name] = in })

	if !inv.Invariant(f.Params[0]) || !inv.Invariant(f.Params[1]) {
		t.Error("params should be invariant")
	}
	if inv.Invariant(vals["i"]) || inv.Invariant(vals["next"]) {
		t.Error("induction variable should be variant")
	}
	if inv.Invariant(vals["p"]) {
		t.Error("iv-dependent gep should be variant")
	}
	// @lim load: address invariant, and the loop's only store targets @a,
	// which base-object AA proves cannot alias @lim.
	if !inv.Invariant(vals["liminv"]) {
		t.Error("load of untouched global should be invariant (needs alias analysis)")
	}
	if !inv.StackAllocFree() {
		t.Error("loop has no allocas")
	}
}

func TestInvarianceClobberedLoad(t *testing.T) {
	m := ir.MustParse(`module "inv2"
global @a : [64 x i64]
func @f(%n: i64) -> i64 {
entry:
  br ^header
header:
  %i = phi i64 [0, ^entry], [%next, ^latch]
  %cmp = icmp slt i64 %i, %n
  condbr %cmp, ^body, ^exit
body:
  %x = load i64, @a
  %p = gep i64, @a, %i
  store i64 %x, %p
  br ^latch
latch:
  %next = add i64 %i, 1
  br ^header
exit:
  ret i64 0
}`)
	f := m.Func("f")
	c := NewCFG(f)
	l := FindLoops(c, NewDomTree(c)).Top[0]
	inv := NewInvariance(l, NewChain(f))
	var x ir.Value
	f.ForEachInstr(func(in *ir.Instr) {
		if in.Name == "x" {
			x = in
		}
	})
	// The store to @a[i] may alias @a[0], so the load is not invariant.
	if inv.Invariant(x) {
		t.Error("load clobbered by may-aliasing store reported invariant")
	}
}

func TestSCEVIndVar(t *testing.T) {
	_, f := loopFn(t)
	c := NewCFG(f)
	l := FindLoops(c, NewDomTree(c)).Top[0]
	inv := NewInvariance(l, NewChain(f))
	s := NewSCEV(c, l, inv)

	phi := blockByName(f, "header").Instrs[0]
	iv, ok := s.IndVarOf(phi)
	if !ok {
		t.Fatal("induction variable not recognized")
	}
	if iv.Step != 1 {
		t.Errorf("step = %d, want 1", iv.Step)
	}
	if cst, ok := iv.Start.(*ir.Const); !ok || cst.Int != 0 {
		t.Errorf("start = %v, want 0", iv.Start)
	}

	tb, ok := s.TripBoundOf()
	if !ok {
		t.Fatal("trip bound not recognized")
	}
	if tb.Inclusive {
		t.Error("slt bound should be exclusive")
	}
	if tb.Bound != ir.Value(f.Params[0]) {
		t.Errorf("bound = %v, want %%n", tb.Bound)
	}
}

func TestSCEVAffineAccess(t *testing.T) {
	_, f := loopFn(t)
	c := NewCFG(f)
	l := FindLoops(c, NewDomTree(c)).Top[0]
	inv := NewInvariance(l, NewChain(f))
	s := NewSCEV(c, l, inv)

	var gep *ir.Instr
	f.ForEachInstr(func(in *ir.Instr) {
		if in.Op == ir.OpGEP {
			gep = in
		}
	})
	acc, ok := s.AffineAccessOf(gep)
	if !ok {
		t.Fatal("affine access not recognized")
	}
	if acc.StepBytes != 8 {
		t.Errorf("step bytes = %d, want 8", acc.StepBytes)
	}
	if acc.Lin.C != 0 || acc.Lin.K != 8 {
		t.Errorf("linear = %d*iv+%d, want 8*iv+0", acc.Lin.K, acc.Lin.C)
	}
}

func TestSCEVLinearCombinations(t *testing.T) {
	m := ir.MustParse(`module "lin"
global @a : [4096 x i64]
func @f(%n: i64) -> i64 {
entry:
  br ^header
header:
  %i = phi i64 [0, ^entry], [%next, ^latch]
  %cmp = icmp slt i64 %i, %n
  condbr %cmp, ^body, ^exit
body:
  %i4 = mul i64 %i, 4
  %i4p2 = add i64 %i4, 2
  %p = gep i64, @a, %i4p2
  %v = load i64, %p
  br ^latch
latch:
  %next = add i64 %i, 1
  br ^header
exit:
  ret i64 0
}`)
	f := m.Func("f")
	c := NewCFG(f)
	l := FindLoops(c, NewDomTree(c)).Top[0]
	inv := NewInvariance(l, NewChain(f))
	s := NewSCEV(c, l, inv)
	var gep *ir.Instr
	f.ForEachInstr(func(in *ir.Instr) {
		if in.Op == ir.OpGEP {
			gep = in
		}
	})
	acc, ok := s.AffineAccessOf(gep)
	if !ok {
		t.Fatal("linear access not recognized")
	}
	if acc.Lin.K != 32 || acc.Lin.C != 16 {
		t.Errorf("linear bytes = %d*iv+%d, want 32*iv+16", acc.Lin.K, acc.Lin.C)
	}
	if acc.StepBytes != 32 {
		t.Errorf("step = %d, want 32", acc.StepBytes)
	}
}

func TestBits(t *testing.T) {
	b := NewBits(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Has(0) || !b.Has(64) || !b.Has(129) || b.Has(1) {
		t.Error("bit ops wrong")
	}
	b.Clear(64)
	if b.Has(64) {
		t.Error("Clear failed")
	}
	c := slices.Clone(b)
	if !c.Equal(b) {
		t.Error("Copy not equal")
	}
	c.Set(5)
	if c.Equal(b) {
		t.Error("copies aliased")
	}
	d := NewBits(130)
	d.FillAll(130)
	if !d.Has(129) || !d.Has(0) {
		t.Error("FillAll failed")
	}
	e := slices.Clone(d)
	if changed := e.AndWith(b); !changed || !e.Equal(b) {
		t.Error("AndWith wrong")
	}
	if changed := e.OrWith(d); !changed {
		t.Error("OrWith should change")
	}
}

func TestForwardMustAvailability(t *testing.T) {
	// Availability of "fact 0" generated in entry should reach exit through
	// both arms; fact 1 generated only in left must not be available at merge.
	_, f := diamond(t)
	c := NewCFG(f)
	gen := map[string]int{"entry": 0, "left": 1}
	ins := ForwardMust(c, 2, func(b *ir.Block, in Bits) Bits {
		if i, ok := gen[b.Name]; ok {
			in.Set(i)
		}
		return in
	})
	merge := blockByName(f, "merge")
	if !ins[merge.Idx].Has(0) {
		t.Error("fact from entry should be available at merge")
	}
	if ins[merge.Idx].Has(1) {
		t.Error("one-arm fact must not be available at merge")
	}
	exit := blockByName(f, "exit")
	if !ins[exit.Idx].Has(0) || ins[exit.Idx].Has(1) {
		t.Error("exit availability wrong")
	}
}

func TestForwardMustLoop(t *testing.T) {
	// A fact generated before a loop stays available inside it.
	_, f := loopFn(t)
	c := NewCFG(f)
	ins := ForwardMust(c, 1, func(b *ir.Block, in Bits) Bits {
		if b.Name == "entry" {
			in.Set(0)
		}
		return in
	})
	for _, name := range []string{"header", "body", "latch", "exit"} {
		if !ins[blockByName(f, name).Idx].Has(0) {
			t.Errorf("fact not available at %s", name)
		}
	}
}

func TestRangesBasics(t *testing.T) {
	m := ir.MustParse(`module "rg"
func @f(%x: i64, %n: i64) -> i64 {
entry:
  %m = and i64 %x, 255
  %r = urem i64 %x, 100
  %sh = lshr i64 %m, 2
  %sum = add i64 %m, %r
  %sc = mul i64 %m, 8
  %sel = select i64 1, %m, %r
  ret i64 %sum
}`)
	f := m.Func("f")
	vals := map[string]ir.Value{}
	f.ForEachInstr(func(in *ir.Instr) { vals[in.Name] = in })
	r := NewRanges(f)

	check := func(name string, lo, hi uint64) {
		t.Helper()
		iv := r.Of(vals[name])
		if iv.Lo != lo || iv.Hi != hi {
			t.Errorf("%s: range [%d,%d], want [%d,%d]", name, iv.Lo, iv.Hi, lo, hi)
		}
	}
	check("m", 0, 255)
	check("r", 0, 99)
	check("sh", 0, 63)
	check("sum", 0, 354)
	check("sc", 0, 2040)
	check("sel", 0, 255)
	if !r.Of(f.Params[0]).IsFull() {
		t.Error("unconstrained parameter should be full range")
	}
}

// TestRangesNarrowConstant: a narrow constant with its top bit set is read
// at its width, not as the negative number it is stored as.
func TestRangesNarrowConstant(t *testing.T) {
	m := ir.MustParse(`module "nc"
func @f(%x: i64) -> i64 {
entry:
  %t = trunc i64 %x to i16
  %u = urem i16 %t, 40000
  %z = zext i16 %u to i64
  ret i64 %z
}`)
	f := m.Func("f")
	vals := map[string]ir.Value{}
	f.ForEachInstr(func(in *ir.Instr) { vals[in.Name] = in })
	r := NewRanges(f)
	for _, name := range []string{"u", "z"} {
		if iv := r.Of(vals[name]); iv.Lo != 0 || iv.Hi != 39999 {
			t.Errorf("%s: range [%d,%d], want [0,39999]", name, iv.Lo, iv.Hi)
		}
	}
}

func TestRangesWidthBound(t *testing.T) {
	m := ir.NewModule("w")
	f := m.AddFunc("f", ir.Void, &ir.Param{Name: "b", Typ: ir.I8})
	r := NewRanges(f)
	iv := r.Of(f.Params[0])
	if iv.Lo != 0 || iv.Hi != 255 {
		t.Errorf("i8 param range = [%d,%d], want [0,255]", iv.Lo, iv.Hi)
	}
}

func TestRangesPhiConservative(t *testing.T) {
	m := ir.MustParse(`module "p"
func @f(%c: i1, %u: i64) -> i64 {
entry:
  %a = and i64 %u, 15
  condbr %c, ^l, ^r
l:
  br ^m
r:
  br ^m
m:
  %phi = phi i64 [%a, ^l], [7, ^r]
  %bad = phi i64 [%u, ^l], [3, ^r]
  ret i64 %phi
}`)
	f := m.Func("f")
	vals := map[string]ir.Value{}
	f.ForEachInstr(func(in *ir.Instr) { vals[in.Name] = in })
	r := NewRanges(f)
	iv := r.Of(vals["phi"])
	if iv.Lo != 0 || iv.Hi != 15 {
		t.Errorf("phi range = [%d,%d], want [0,15]", iv.Lo, iv.Hi)
	}
	if !r.Of(vals["bad"]).IsFull() {
		t.Error("phi with unconstrained incoming should be full")
	}
}

// TestLateBornInstructions: an instruction that enters a function after a
// table was sized from NumIDs() — a guard under the alias analysis the guard
// passes preserve, a value a hoisting sweep re-queries — has an ID past the
// table's end and must read exactly as the absent key of the map the table
// replaced did. One row per table that can outlive an insertion.
func TestLateBornInstructions(t *testing.T) {
	_, f := loopFn(t)
	body := blockByName(f, "body")
	sized := f.NumIDs()
	c := NewCFG(f)
	l := FindLoops(c, NewDomTree(c)).Top[0]
	pt, r := NewPointsToAA(f), NewRanges(f)
	inv := NewInvariance(l, &Chain{AAs: []AliasAnalysis{pt}})
	inv.Invariant(body.Instrs[0]) // the tables have been used at their first size

	// Born late, into the loop body: a pointer with a known base, an
	// invariant and bounded integer, and a variant one.
	g := f.Mod.Global("a")
	late := func(in *ir.Instr) *ir.Instr {
		body.Insert(len(body.Instrs)-1, in)
		if int(in.ID) < sized {
			t.Fatalf("%s got ID %d, inside a table sized %d", in, in.ID, sized)
		}
		return in
	}
	ptr := late(&ir.Instr{Op: ir.OpGEP, Name: "lp", Typ: ir.Ptr, Elem: ir.I64, Args: []ir.Value{g, ir.ConstInt(ir.I64, 1)}})
	bounded := late(&ir.Instr{Op: ir.OpAnd, Name: "lb", Typ: ir.I64, Args: []ir.Value{f.Params[0], ir.ConstInt(ir.I64, 15)}})
	variant := late(&ir.Instr{Op: ir.OpAdd, Name: "lv", Typ: ir.I64, Args: []ir.Value{body.Instrs[1], bounded}})

	t.Run("PointsToAA reads the unknown object", func(t *testing.T) {
		var one [1]ir.Value
		if s := pt.objectsOf(ptr, &one); len(s) != 1 || s[0] != unknownObj {
			t.Errorf("objects of a late-born gep = %v, want the unknown object", s)
		}
		if got := pt.Alias(ptr, 8, g, 8); got != MayAlias {
			t.Errorf("late-born gep vs its own base: %v, want may", got)
		}
	})
	t.Run("Invariance computes and memoises", func(t *testing.T) {
		for _, c := range []struct {
			in   *ir.Instr
			want bool
			memo int8
		}{{bounded, true, 1}, {variant, false, 2}} {
			if got := inv.Invariant(c.in); got != c.want {
				t.Errorf("Invariant(%s) = %v, want %v", c.in, got, c.want)
			}
			if got := at(inv.memo, c.in.ID); got != c.memo {
				t.Errorf("memo of %s = %d, want %d", c.in, got, c.memo)
			}
		}
	})
	t.Run("Ranges computes and memoises", func(t *testing.T) {
		if iv := r.Of(bounded); iv != (Interval{0, 15}) {
			t.Errorf("range of a late-born and = %v, want [0,15]", iv)
		}
		if m := at(r.memo, bounded.ID); !m.known || m.iv != (Interval{0, 15}) {
			t.Errorf("memo of a late-born and = %+v", m)
		}
	})
	t.Run("Bits past the end", func(t *testing.T) {
		b := NewBits(sized)
		if b.Has(int(variant.ID)) || b.Has(1<<20) {
			t.Error("a bit past the end reads set")
		}
		if b = b.With(int(variant.ID) + 640); !b.Has(int(variant.ID)+640) || b.Has(int(variant.ID)) {
			t.Error("With did not grow the set to the bit it sets")
		}
	})
}
