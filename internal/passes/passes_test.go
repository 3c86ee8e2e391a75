package passes

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"carat/internal/analysis"
	"carat/internal/ir"
	"carat/internal/obs"
)

func countGuards(m *ir.Module) (total int, byKind map[ir.GuardKind]int) {
	byKind = make(map[ir.GuardKind]int)
	for _, f := range m.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op == ir.OpGuard {
				total++
				byKind[in.Kind]++
			}
		})
	}
	return
}

func countOps(f *ir.Func, op ir.Op) int {
	n := 0
	f.ForEachInstr(func(in *ir.Instr) {
		if in.Op == op {
			n++
		}
	})
	return n
}

const loopSrc = `module "m"
global @a : [1024 x i64]
global @lim : i64
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
  %lim1 = load i64, @lim
  %v2 = add i64 %v, %lim1
  store i64 %v2, %p
  br ^latch
latch:
  %next = add i64 %i, 1
  br ^header
exit:
  ret i64 0
}`

func TestGuardInjectCounts(t *testing.T) {
	m := ir.MustParse(loopSrc)
	pl := &PassManager{Passes: []Pass{&GuardInject{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	total, byKind := countGuards(m)
	// 2 loads + 1 store, no calls.
	if total != 3 || byKind[ir.GuardLoad] != 2 || byKind[ir.GuardStore] != 1 {
		t.Fatalf("guards = %d %v, want 3 (2 load, 1 store)", total, byKind)
	}
	if pl.Stats.GuardsInjected != 3 {
		t.Errorf("stats.GuardsInjected = %d", pl.Stats.GuardsInjected)
	}
	// Guards must immediately precede their accesses.
	f := m.Func("f")
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op == ir.OpGuard && in.Kind == ir.GuardLoad {
				next := b.Instrs[i+1]
				if next.Op != ir.OpLoad || next.Args[0] != in.Args[0] {
					t.Errorf("load guard not adjacent to its load: %s then %s", in, next)
				}
			}
		}
	}
}

func TestGuardInjectCallGuard(t *testing.T) {
	m := ir.MustParse(`module "m"
func @callee(%x: i64) -> i64 {
entry:
  ret i64 %x
}
func @main() -> i64 {
entry:
  %r = call i64 @callee(i64 7)
  ret i64 %r
}`)
	m.Func("callee").StackFootprint = 64
	pl := &PassManager{Passes: []Pass{&GuardInject{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	_, byKind := countGuards(m)
	if byKind[ir.GuardCall] != 1 {
		t.Fatalf("call guards = %d, want 1", byKind[ir.GuardCall])
	}
	var g *ir.Instr
	m.Func("main").ForEachInstr(func(in *ir.Instr) {
		if in.Op == ir.OpGuard {
			g = in
		}
	})
	if c, ok := g.Args[1].(*ir.Const); !ok || c.Int != 64 {
		t.Errorf("call guard footprint = %v, want 64", g.Args[1])
	}
}

func TestGuardInjectSkipsRuntimeCalls(t *testing.T) {
	m := ir.NewModule("m")
	malloc := m.DeclareFunc(ir.FnMalloc, ir.Ptr, ir.I64)
	f := m.AddFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	b.Call(malloc, b.I64(64))
	b.Ret(nil)
	pl := &PassManager{Passes: []Pass{&GuardInject{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	if total, _ := countGuards(m); total != 0 {
		t.Errorf("runtime call was guarded: %d guards", total)
	}
}

func TestHoistInvariantGuard(t *testing.T) {
	m := ir.MustParse(loopSrc)
	pl := &PassManager{Passes: []Pass{&GuardInject{}, &HoistGuards{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	// The @lim load guard has an invariant address: must be hoisted to the
	// preheader (entry). The @a[i] guards are variant and must stay.
	f := m.Func("f")
	var entryGuards, bodyGuards int
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpGuard {
				continue
			}
			switch b.Name {
			case "entry":
				entryGuards++
			case "body":
				bodyGuards++
			}
		}
	}
	if entryGuards != 1 {
		t.Errorf("entry guards = %d, want 1 (hoisted @lim guard)", entryGuards)
	}
	if bodyGuards != 2 {
		t.Errorf("body guards = %d, want 2 (variant @a[i] guards)", bodyGuards)
	}
	if pl.Stats.Hoisted != 1 {
		t.Errorf("stats.Hoisted = %d, want 1", pl.Stats.Hoisted)
	}
}

func TestMergeAffineGuards(t *testing.T) {
	m := ir.MustParse(loopSrc)
	pl := &PassManager{Passes: []Pass{&GuardInject{}, &MergeGuards{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	_, byKind := countGuards(m)
	// Both @a[i] guards (load+store) merge into range guards in the
	// preheader; a read range and a write range guard must exist.
	if byKind[ir.GuardRange] < 1 || byKind[ir.GuardRangeStore] != 1 {
		t.Fatalf("range guards missing: %v", byKind)
	}
	if byKind[ir.GuardLoad] != 1 { // only the @lim guard remains as a load guard
		t.Errorf("load guards = %d, want 1", byKind[ir.GuardLoad])
	}
	if byKind[ir.GuardStore] != 0 {
		t.Errorf("store guards = %d, want 0", byKind[ir.GuardStore])
	}
	if pl.Stats.Merged != 2 {
		t.Errorf("stats.Merged = %d, want 2", pl.Stats.Merged)
	}
	// Range guards must be in the preheader (entry).
	f := m.Func("f")
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpGuard && (in.Kind == ir.GuardRange || in.Kind == ir.GuardRangeStore) {
				if b.Name != "entry" {
					t.Errorf("range guard in ^%s, want entry", b.Name)
				}
			}
		}
	}
}

func TestRedundantGuardElimination(t *testing.T) {
	m := ir.MustParse(`module "m"
global @g : i64
func @f() -> i64 {
entry:
  %a = load i64, @g
  %b = load i64, @g
  store i64 %b, @g
  %c = load i64, @g
  ret i64 %c
}`)
	pl := &PassManager{Passes: []Pass{&GuardInject{}, &RedundantGuards{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	_, byKind := countGuards(m)
	// Three load guards on the same address collapse to one; the store
	// guard (different permission) must survive.
	if byKind[ir.GuardLoad] != 1 {
		t.Errorf("load guards = %d, want 1", byKind[ir.GuardLoad])
	}
	if byKind[ir.GuardStore] != 1 {
		t.Errorf("store guards = %d, want 1", byKind[ir.GuardStore])
	}
	if pl.Stats.Removed != 2 {
		t.Errorf("stats.Removed = %d, want 2", pl.Stats.Removed)
	}
}

func TestRedundantAcrossDiamond(t *testing.T) {
	m := ir.MustParse(`module "m"
global @g : i64
func @f(%c: i1) -> i64 {
entry:
  %a = load i64, @g
  condbr %c, ^l, ^r
l:
  %x = load i64, @g
  br ^merge
r:
  br ^merge
merge:
  %y = load i64, @g
  ret i64 %y
}`)
	pl := &PassManager{Passes: []Pass{&GuardInject{}, &RedundantGuards{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	total, _ := countGuards(m)
	// entry guard survives; l and merge guards are subsumed (available on
	// all paths from entry).
	if total != 1 {
		t.Errorf("guards remaining = %d, want 1", total)
	}
}

func TestRedundantOneArmNotSubsumed(t *testing.T) {
	m := ir.MustParse(`module "m"
global @g : i64
global @h : i64
func @f(%c: i1) -> i64 {
entry:
  condbr %c, ^l, ^r
l:
  %x = load i64, @h
  br ^merge
r:
  br ^merge
merge:
  %y = load i64, @h
  ret i64 %y
}`)
	pl := &PassManager{Passes: []Pass{&GuardInject{}, &RedundantGuards{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	total, _ := countGuards(m)
	// The guard in l is only on one path: the merge guard must survive.
	if total != 2 {
		t.Errorf("guards remaining = %d, want 2", total)
	}
}

func TestRedundantSizeSubsumption(t *testing.T) {
	m := ir.NewModule("m")
	g := m.AddGlobal("g", ir.ArrayOf(ir.I8, 64))
	f := m.AddFunc("f", ir.Void)
	b := ir.NewBuilder(f)
	b.Guard(ir.GuardLoad, g, b.I64(8))  // wide check first
	b.Guard(ir.GuardLoad, g, b.I64(4))  // narrower: subsumed
	b.Guard(ir.GuardLoad, g, b.I64(16)) // wider: NOT subsumed
	b.Ret(nil)
	pl := &PassManager{Passes: []Pass{&RedundantGuards{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	total, _ := countGuards(m)
	if total != 2 {
		t.Errorf("guards remaining = %d, want 2 (8-byte and 16-byte)", total)
	}
}

func TestTrackingInject(t *testing.T) {
	m := ir.MustParse(`module "m"
global @slot : ptr
func @malloc(%sz: i64) -> ptr
func @free(%p: ptr) -> void
func @main() -> i64 {
entry:
  %p = call ptr @malloc(i64 128)
  store ptr %p, @slot
  call void @free(ptr %p)
  %s = alloca i64, 4
  ret i64 0
}`)
	pl := &PassManager{Passes: []Pass{&TrackingInject{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	st := pl.Stats
	if st.AllocCallbacks != 2 { // malloc + alloca
		t.Errorf("alloc callbacks = %d, want 2", st.AllocCallbacks)
	}
	if st.FreeCallbacks != 1 {
		t.Errorf("free callbacks = %d, want 1", st.FreeCallbacks)
	}
	if st.EscapeCallbacks != 1 {
		t.Errorf("escape callbacks = %d, want 1", st.EscapeCallbacks)
	}
	text := m.String()
	for _, want := range []string{"carat.alloc", "carat.free", "carat.escape"} {
		if !strings.Contains(text, want) {
			t.Errorf("instrumented module missing %s", want)
		}
	}
	// The escape callback must come after its store and carry (loc, val).
	main := m.Func("main")
	entry := main.Entry()
	for i, in := range entry.Instrs {
		if in.Op == ir.OpStore {
			next := entry.Instrs[i+1]
			if next.Op != ir.OpCall || next.Callee.Name != ir.FnTrackEscape {
				t.Fatalf("instruction after store is %s, want carat.escape", next)
			}
			if next.Args[0] != in.Args[1] || next.Args[1] != in.Args[0] {
				t.Error("escape callback arguments wrong")
			}
		}
	}
}

func TestTrackingCallocSize(t *testing.T) {
	m := ir.NewModule("m")
	calloc := m.DeclareFunc(ir.FnCalloc, ir.Ptr, ir.I64, ir.I64)
	f := m.AddFunc("main", ir.Void)
	b := ir.NewBuilder(f)
	b.Call(calloc, b.I64(10), b.I64(8))
	b.Ret(nil)
	pl := &PassManager{Passes: []Pass{&TrackingInject{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	// After constant folding the size argument the callback should see 80;
	// here we just check a mul feeding the callback exists.
	var cb *ir.Instr
	f.ForEachInstr(func(in *ir.Instr) {
		if in.Op == ir.OpCall && in.Callee.Name == ir.FnTrackAlloc {
			cb = in
		}
	})
	if cb == nil {
		t.Fatal("no alloc callback for calloc")
	}
	mul, ok := cb.Args[1].(*ir.Instr)
	if !ok || mul.Op != ir.OpMul {
		t.Errorf("calloc size not computed: %v", cb.Args[1])
	}
}

func TestConstFold(t *testing.T) {
	m := ir.MustParse(`module "m"
func @f() -> i64 {
entry:
  %a = add i64 2, 3
  %b = mul i64 %a, 4
  %c = sub i64 %b, 0
  ret i64 %c
}`)
	pl := &PassManager{Passes: []Pass{&ConstFold{}, &DCE{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	f := m.Func("f")
	if n := f.NumInstrs(); n != 1 {
		t.Errorf("instructions after fold+dce = %d, want 1 (ret)", n)
	}
	ret := f.Entry().Term()
	if c, ok := ret.Args[0].(*ir.Const); !ok || c.Int != 20 {
		t.Errorf("folded value = %v, want 20", ret.Args[0])
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	m := ir.MustParse(`module "m"
global @g : i64
func @f() -> void {
entry:
  %dead = add i64 1, 2
  store i64 5, @g
  ret void
}`)
	pl := &PassManager{Passes: []Pass{&DCE{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	f := m.Func("f")
	if countOps(f, ir.OpStore) != 1 {
		t.Error("DCE removed a store")
	}
	if countOps(f, ir.OpAdd) != 0 {
		t.Error("DCE kept dead add")
	}
}

func TestDCEDivByZeroKept(t *testing.T) {
	m := ir.MustParse(`module "m"
func @f(%x: i64) -> void {
entry:
  %d = sdiv i64 %x, 0
  ret void
}`)
	pl := &PassManager{Passes: []Pass{&DCE{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	if countOps(m.Func("f"), ir.OpSDiv) != 1 {
		t.Error("DCE removed a potentially trapping division")
	}
}

func TestCSE(t *testing.T) {
	m := ir.MustParse(`module "m"
global @a : [64 x i64]
func @f(%i: i64) -> i64 {
entry:
  %p1 = gep i64, @a, %i
  %p2 = gep i64, @a, %i
  %v1 = load i64, %p1
  %v2 = load i64, %p2
  %s = add i64 %v1, %v2
  ret i64 %s
}`)
	pl := &PassManager{Passes: []Pass{&CSE{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	if countOps(m.Func("f"), ir.OpGEP) != 1 {
		t.Error("CSE did not merge identical GEPs")
	}
	if pl.Stats.CSEd != 1 {
		t.Errorf("stats.CSEd = %d, want 1", pl.Stats.CSEd)
	}
}

// TestFoldAndCSEReachBackEdgePhis: a fold or an elimination in a loop's
// latch is read by the header's phis, which both passes visit before the
// instruction they replace; when the pass returns, the phis read the
// replacement and no operand anywhere names a dropped instruction.
func TestFoldAndCSEReachBackEdgePhis(t *testing.T) {
	m := ir.MustParse(`module "m"
func @f(%x: i64, %n: i64) -> i64 {
entry:
  %e1 = mul i64 %x, 3
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %k = phi i64 [0, ^entry], [%c2, ^loop]
  %d = phi i64 [0, ^entry], [%e2, ^loop]
  %c1 = add i64 4, 5
  %c2 = mul i64 %c1, 2
  %e2 = mul i64 %x, 3
  %i1 = add i64 %i, 1
  %cc = icmp slt i64 %i1, %n
  condbr %cc, ^loop, ^done
done:
  %r = add i64 %k, %d
  ret i64 %r
}`)
	pl := &PassManager{Passes: []Pass{&ConstFold{}, &CSE{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	f := m.Func("f")
	phis := map[string]*ir.Instr{}
	f.ForEachInstr(func(in *ir.Instr) {
		if in.Op == ir.OpPhi {
			phis[in.Name] = in
		}
		for _, a := range in.Args {
			if ai, ok := a.(*ir.Instr); ok && ai.Block == nil {
				t.Errorf("%%%s still reads the dropped %%%s", in.Name, ai.Name)
			}
		}
	})
	if c, ok := phis["k"].Args[1].(*ir.Const); !ok || c.Int != 18 {
		t.Errorf("back edge of %%k reads %s, want the folded 18", phis["k"].Args[1].Ref())
	}
	if e, ok := phis["d"].Args[1].(*ir.Instr); !ok || e.Name != "e1" {
		t.Errorf("back edge of %%d reads %s, want %%e1", phis["d"].Args[1].Ref())
	}
	if pl.Stats.Folded != 2 || pl.Stats.CSEd != 1 {
		t.Errorf("folded %d, CSEd %d; want 2 and 1", pl.Stats.Folded, pl.Stats.CSEd)
	}
}

// TestCSEKeyClasses pins which computations CSE's key calls equal: types
// structurally (two parses of one aggregate type), float constants by
// printed value (so 0.0 and -0.0 stay apart), instruction operands by
// identity, and opcode, predicate and element type all significant.
func TestCSEKeyClasses(t *testing.T) {
	m := ir.MustParse(`module "m"
global @a : [64 x i64]
func @f(%i: i64, %x: f64) -> i64 {
entry:
  %p1 = gep [4 x i64], @a, %i, 1
  %p2 = gep [4 x i64], @a, %i, 1
  %p3 = gep [4 x i32], @a, %i, 1
  %f1 = fadd f64 %x, 1.5
  %f2 = fadd f64 %x, 1.5
  %z1 = fadd f64 %x, 0.0
  %z2 = fadd f64 %x, -0.0
  %c1 = icmp slt i64 %i, 3
  %c2 = icmp sle i64 %i, 3
  %c3 = icmp slt i64 %i, 3
  %a1 = add i64 %i, 1
  %a2 = add i64 %a1, 1
  %a3 = add i64 %a1, 1
  %a4 = add i64 %a2, 1
  %s1 = sub i64 %i, 1
  %w1 = trunc i64 %i to i32
  %w2 = trunc i64 %i to i16
  ret i64 %a3
}`)
	pl := &PassManager{Passes: []Pass{&CSE{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	var left []string
	m.Func("f").ForEachInstr(func(in *ir.Instr) { left = append(left, in.Name) })
	want := "p1 p3 f1 z1 z2 c1 c2 a1 a2 a4 s1 w1 w2 "
	if got := strings.Join(left, " "); got != want {
		t.Errorf("CSE kept %q, want %q", got, want)
	}
	if pl.Stats.CSEd != 4 {
		t.Errorf("stats.CSEd = %d, want 4 (p2, f2, c3, a3)", pl.Stats.CSEd)
	}
}

func TestLICMHoistsInvariantArith(t *testing.T) {
	m := ir.MustParse(`module "m"
global @a : [64 x i64]
func @f(%n: i64, %k: i64) -> i64 {
entry:
  br ^header
header:
  %i = phi i64 [0, ^entry], [%next, ^latch]
  %cmp = icmp slt i64 %i, %n
  condbr %cmp, ^body, ^exit
body:
  %kk = mul i64 %k, %k
  %p = gep i64, @a, %i
  store i64 %kk, %p
  br ^latch
latch:
  %next = add i64 %i, 1
  br ^header
exit:
  ret i64 0
}`)
	pl := &PassManager{Passes: []Pass{&LICM{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	f := m.Func("f")
	// %kk must have moved to entry (the preheader).
	entry := f.Entry()
	found := false
	for _, in := range entry.Instrs {
		if in.Name == "kk" {
			found = true
		}
	}
	if !found {
		t.Error("LICM did not hoist invariant multiply")
	}
	if pl.Stats.LICMMoved == 0 {
		t.Error("stats.LICMMoved = 0")
	}
}

func TestFullPipelineLevels(t *testing.T) {
	for _, lvl := range []Level{LevelNone, LevelGuardsOnly, LevelGuardsOpt, LevelTracking, LevelTrackingOnly} {
		m := ir.MustParse(loopSrc)
		pl := Build(lvl)
		if err := pl.Run(m); err != nil {
			t.Fatalf("level %d: %v", lvl, err)
		}
		total, byKind := countGuards(m)
		switch lvl {
		case LevelNone, LevelTrackingOnly:
			if total != 0 {
				t.Errorf("level %d has %d guards, want 0", lvl, total)
			}
		case LevelGuardsOnly:
			if total != 3 {
				t.Errorf("level %d has %d guards, want 3", lvl, total)
			}
		case LevelGuardsOpt, LevelTracking:
			// The loop-body load/store guards must have been merged into
			// preheader range guards; no per-iteration store guard remains.
			if byKind[ir.GuardStore] != 0 {
				t.Errorf("level %d: %d store guards remain in loop", lvl, byKind[ir.GuardStore])
			}
			if byKind[ir.GuardRange]+byKind[ir.GuardRangeStore] == 0 {
				t.Errorf("level %d: no range guards produced", lvl)
			}
		}
	}
}

func TestTable1InvariantFractionsSum(t *testing.T) {
	m := ir.MustParse(loopSrc)
	pl := Build(LevelGuardsOpt)
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	s := pl.Stats
	sum := s.FracUntouched() + s.FracHoisted() + s.FracMerged() + s.FracRemoved()
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum to %f, want 1.0 (untouched %f hoist %f merge %f remove %f)",
			sum, s.FracUntouched(), s.FracHoisted(), s.FracMerged(), s.FracRemoved())
	}
}

// corruptPass leaves every function returning a value of the wrong type:
// malformed, but nothing a later pass trips over.
var corruptPass = funcPassStub{name: "corrupt", fn: func(f *ir.Func, _ *Stats, _ *analysis.FuncAnalyses) error {
	for _, b := range f.Blocks {
		if t := b.Term(); t.Op == ir.OpRet {
			t.Args[0] = ir.ConstInt(ir.I1, 1)
		}
	}
	return nil
}}

// TestPipelineVerifiesAtExit holds in every build: whichever pass corrupts a
// function, Run fails — at the latest at its exit verify — and reports no
// statistics, so a caller (core.Compiler.Compile) has nothing to sign. That
// the error names the pass is a caratdebug guarantee: debug_test.go.
func TestPipelineVerifiesAtExit(t *testing.T) {
	for name, ps := range map[string][]Pass{
		"only":  {corruptPass},
		"first": {corruptPass, &GuardInject{}, &DCE{}},
		"last":  {&GuardInject{}, &DCE{}, corruptPass},
	} {
		reg := obs.NewRegistry()
		pl := &PassManager{Passes: ps, Obs: reg}
		err := pl.Run(ir.MustParse(loopSrc))
		if err == nil || !strings.Contains(err.Error(), "ret type mismatch") {
			t.Errorf("%s: Run = %v, want the verifier's ret type mismatch", name, err)
		}
		if !reflect.DeepEqual(pl.Stats, Stats{}) {
			t.Errorf("%s: a failed Run reported statistics: %+v", name, pl.Stats)
		}
		if n := reg.Counter("carat.passes.guards_injected").Get(); n != 0 {
			t.Errorf("%s: a failed Run published guards_injected = %d", name, n)
		}
	}
}

type funcPassStub struct {
	name string
	fn   func(*ir.Func, *Stats, *analysis.FuncAnalyses) error
}

func (p funcPassStub) Name() string                  { return p.name }
func (p funcPassStub) Preserves() analysis.Preserved { return analysis.PreserveNone }
func (p funcPassStub) RunOnFunc(f *ir.Func, s *Stats, fa *analysis.FuncAnalyses) error {
	return p.fn(f, s, fa)
}

func TestBoundedIndexMerge(t *testing.T) {
	// Random masked indices are not affine, but the value-range rule must
	// still merge their guards into one constant range guard.
	m := ir.MustParse(`module "b"
global @tbl : [256 x i64]
global @rng : i64
func @f(%n: i64) -> i64 {
entry:
  br ^header
header:
  %i = phi i64 [0, ^entry], [%i1, ^header]
  %r = load i64, @rng
  %r1 = xor i64 %r, 12345
  store i64 %r1, @rng
  %idx = and i64 %r1, 255
  %p = gep i64, @tbl, %idx
  %v = load i64, %p
  store i64 %v, %p
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, %n
  condbr %c, ^header, ^exit
exit:
  ret i64 0
}`)
	pl := &PassManager{Passes: []Pass{&GuardInject{}, &MergeGuards{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	_, byKind := countGuards(m)
	// The masked load AND store on @tbl merge; a read-range and a
	// write-range guard appear in the preheader.
	if byKind[ir.GuardRange] < 1 || byKind[ir.GuardRangeStore] != 1 {
		t.Fatalf("bounded merge missing range guards: %v", byKind)
	}
	// Verify the constant window covers exactly the 256-entry table.
	f := m.Func("f")
	found := false
	for _, in := range f.Entry().Instrs {
		if in.Op == ir.OpGuard && in.Kind == ir.GuardRangeStore {
			span := in.Args[1].(*ir.Const).Int
			if span != 255*8+8 {
				t.Errorf("range span = %d, want %d", span, 255*8+8)
			}
			found = true
		}
	}
	if !found {
		t.Error("no rangestore guard in preheader")
	}
	if pl.Stats.Merged < 2 {
		t.Errorf("stats.Merged = %d, want >= 2", pl.Stats.Merged)
	}
}

// TestMulAddOverflow: the range guard's constant arithmetic is refused at
// the first product or sum that leaves i64, and only there.
func TestMulAddOverflow(t *testing.T) {
	for _, c := range []struct {
		a, b, c int64
		want    int64
		ok      bool
	}{
		{3, 4, 5, 17, true},
		{-3, 4, 5, -7, true},
		{-3, -4, -5, 7, true},
		{8, 1 << 61, 0, 0, false}, // 2^64 wraps to 0
		{8, -1 << 60, 0, math.MinInt64, true},
		{-8, 1 << 60, 0, math.MinInt64, true},
		{-8, -1 << 60, 0, 0, false},
		{-1, math.MinInt64, 0, 0, false},
		{math.MinInt64, 1, 0, math.MinInt64, true},
		{1 << 32, 1 << 31, 0, 0, false},
		{1 << 31, 1 << 31, 0, 1 << 62, true},
		{1, math.MaxInt64, 1, 0, false},
		{1, math.MinInt64, -1, 0, false},
		{1, math.MaxInt64, -1, math.MaxInt64 - 1, true},
		{0, math.MaxInt64, math.MaxInt64, math.MaxInt64, true},
	} {
		got, ok := mulAdd(c.a, c.b, c.c)
		if ok != c.ok || ok && got != c.want {
			t.Errorf("mulAdd(%d, %d, %d) = %d, %v; want %d, %v", c.a, c.b, c.c, got, ok, c.want, c.ok)
		}
	}
}
