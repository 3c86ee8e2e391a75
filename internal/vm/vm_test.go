package vm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/kernel"
	"carat/internal/passes"
)

// compile runs the given pipeline level over a parsed module.
func compile(t testing.TB, src string, lvl passes.Level) *ir.Module {
	t.Helper()
	m := ir.MustParse(src)
	pl := passes.Build(lvl)
	if err := pl.Run(m); err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

// stopReason is the reason a run stopped for, "" when err is no *StopError.
func stopReason(err error) StopReason {
	var se *StopError
	if errors.As(err, &se) {
		return se.Reason
	}
	return ""
}

func run(t testing.TB, m *ir.Module, cfg Config) (*VM, int64) {
	t.Helper()
	v, err := Load(m, cfg)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	ret, err := v.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return v, ret
}

const sumSrc = `module "sum"
global @a : [64 x i64]
func @main() -> i64 {
entry:
  br ^fill
fill:
  %i = phi i64 [0, ^entry], [%i1, ^fill]
  %p = gep i64, @a, %i
  store i64 %i, %p
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 64
  condbr %c, ^fill, ^sum
sum:
  br ^loop
loop:
  %j = phi i64 [0, ^sum], [%j1, ^loop]
  %acc = phi i64 [0, ^sum], [%acc1, ^loop]
  %q = gep i64, @a, %j
  %x = load i64, %q
  %acc1 = add i64 %acc, %x
  %j1 = add i64 %j, 1
  %d = icmp slt i64 %j1, 64
  condbr %d, ^loop, ^done
done:
  ret i64 %acc1
}`

func TestRunSumAllModes(t *testing.T) {
	const want = 63 * 64 / 2
	cases := []struct {
		name string
		lvl  passes.Level
		mode Mode
		mech guard.Mechanism
	}{
		{"baseline-traditional", passes.LevelNone, ModeTraditional, guard.MechRange},
		{"baseline-carat", passes.LevelNone, ModeCARAT, guard.MechRange},
		{"guards-range", passes.LevelGuardsOnly, ModeCARAT, guard.MechRange},
		{"guards-mpx", passes.LevelGuardsOnly, ModeCARAT, guard.MechMPX},
		{"guards-opt", passes.LevelGuardsOpt, ModeCARAT, guard.MechRange},
		{"tracking", passes.LevelTracking, ModeCARAT, guard.MechRange},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := compile(t, sumSrc, c.lvl)
			cfg := DefaultConfig()
			cfg.Mode = c.mode
			cfg.GuardMech = c.mech
			cfg.MemBytes = 1 << 24
			cfg.HeapBytes = 1 << 20
			_, ret := run(t, m, cfg)
			if ret != want {
				t.Errorf("result = %d, want %d", ret, want)
			}
		})
	}
}

func TestGuardOverheadOrdering(t *testing.T) {
	// Cycle counts must order: baseline <= optimized guards <= naive guards.
	mkCycles := func(lvl passes.Level, mech guard.Mechanism) uint64 {
		m := compile(t, sumSrc, lvl)
		cfg := DefaultConfig()
		cfg.MemBytes = 1 << 24
		cfg.HeapBytes = 1 << 20
		cfg.GuardMech = mech
		v, _ := run(t, m, cfg)
		return v.Cycles
	}
	base := mkCycles(passes.LevelNone, guard.MechRange)
	naive := mkCycles(passes.LevelGuardsOnly, guard.MechRange)
	opt := mkCycles(passes.LevelGuardsOpt, guard.MechRange)
	mpx := mkCycles(passes.LevelGuardsOnly, guard.MechMPX)
	if !(base < opt && opt < naive) {
		t.Errorf("cycle ordering wrong: base %d, opt %d, naive %d", base, opt, naive)
	}
	if mpx >= naive {
		t.Errorf("MPX guards (%d) not cheaper than range guards (%d)", mpx, naive)
	}
}

func TestHeapAndTracking(t *testing.T) {
	src := `module "heap"
global @slot : ptr
func @malloc(%sz: i64) -> ptr
func @free(%p: ptr) -> void
func @main() -> i64 {
entry:
  %p = call ptr @malloc(i64 256)
  store ptr %p, @slot
  %q = gep i64, %p, 3
  store i64 41, %q
  %x = load i64, %q
  %x1 = add i64 %x, 1
  call void @free(ptr %p)
  ret i64 %x1
}`
	m := compile(t, src, passes.LevelTracking)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 24
	cfg.HeapBytes = 1 << 20
	v, ret := run(t, m, cfg)
	if ret != 42 {
		t.Errorf("result = %d, want 42", ret)
	}
	rs := &v.Runtime().Stats
	if rs.Allocs.Get() == 0 || rs.Frees.Get() != 1 || rs.EscapeEvents.Get() == 0 {
		t.Errorf("tracking stats: %d allocs, %d frees, %d escape events", rs.Allocs.Get(), rs.Frees.Get(), rs.EscapeEvents.Get())
	}
}

func TestGuardFaultOutOfRegion(t *testing.T) {
	// Forge a pointer far outside any region; the guard must fault.
	src := `module "bad"
func @main() -> i64 {
entry:
  %p = inttoptr i64 123456789 to ptr
  %x = load i64, %p
  ret i64 %x
}`
	m := compile(t, src, passes.LevelGuardsOnly)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 22
	cfg.HeapBytes = 1 << 18
	v, err := Load(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = v.Run()
	var f *Fault
	if !errors.As(err, &f) || stopReason(err) != StopProtection {
		t.Fatalf("expected a protection stop wrapping a Fault, got %v", err)
	}
	if !strings.Contains(f.Msg, "guard") {
		t.Errorf("fault message = %q", f.Msg)
	}
}

func TestUnguardedBaselineHitsBusFault(t *testing.T) {
	// Without guards, the stray access reaches "hardware" and still cannot
	// corrupt other memory in the simulator: it faults at the bus.
	src := `module "bad"
func @main() -> i64 {
entry:
  %p = inttoptr i64 999999999999 to ptr
  %x = load i64, %p
  ret i64 %x
}`
	m := compile(t, src, passes.LevelNone)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 22
	cfg.HeapBytes = 1 << 18
	v, _ := Load(m, cfg)
	if _, err := v.Run(); err == nil {
		t.Error("stray access did not fault")
	}
}

func TestProtectionChangeObservedByGuards(t *testing.T) {
	// Revoking write permission on the globals region must make the next
	// guarded store fault.
	src := `module "prot"
global @g : i64
func @main() -> i64 {
entry:
  store i64 1, @g
  ret i64 0
}`
	m := compile(t, src, passes.LevelGuardsOnly)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 22
	cfg.HeapBytes = 1 << 18
	v, err := Load(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-run: flip the globals region to read-only.
	gaddr := v.GlobalAddr(m.Global("g"))
	page := gaddr &^ (kernel.PageSize - 1)
	if err := v.Process().RequestProtect(page, kernel.PageSize, guard.PermRead); err != nil {
		t.Fatal(err)
	}
	_, err = v.Run()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("expected Fault after protection change, got %v", err)
	}
	if f.Perm != guard.PermWrite {
		t.Errorf("fault perm = %v, want write", f.Perm)
	}
}

func TestPageMoveDuringExecutionPreservesSemantics(t *testing.T) {
	// The program repeatedly walks a heap structure through an escaped
	// pointer; injected worst-case page moves must not change the result.
	src := `module "move"
global @slot : ptr
func @malloc(%sz: i64) -> ptr
func @main() -> i64 {
entry:
  %p = call ptr @malloc(i64 4096)
  store ptr %p, @slot
  br ^outer
outer:
  %it = phi i64 [0, ^entry], [%it1, ^outerlatch]
  %base = load ptr, @slot
  br ^fill
fill:
  %i = phi i64 [0, ^outer], [%i1, ^fill]
  %q = gep i64, %base, %i
  store i64 %i, %q
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 256
  condbr %c, ^fill, ^check
check:
  %b2 = load ptr, @slot
  %q0 = gep i64, %b2, 255
  %x = load i64, %q0
  call void @print_i64(i64 %x)
  br ^outerlatch
outerlatch:
  %it1 = add i64 %it, 1
  %oc = icmp slt i64 %it1, 50
  condbr %oc, ^outer, ^done
done:
  ret i64 0
}
func @print_i64(%x: i64) -> void`
	m := compile(t, src, passes.LevelTracking)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 24
	cfg.HeapBytes = 1 << 20
	v, err := Load(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	moves := 0
	v.SetMovePolicy(5000, func() error {
		moves++
		return v.InjectWorstCaseMove()
	})
	if _, err := v.Run(); err != nil {
		t.Fatalf("Run with moves: %v", err)
	}
	if moves == 0 {
		t.Fatal("no moves were injected")
	}
	for i, out := range v.Output {
		if out != 255 {
			t.Fatalf("output[%d] = %d, want 255 (semantics broken by move)", i, out)
		}
	}
	if v.Kernel().Stats.PageMoves.Get() == 0 {
		t.Error("kernel recorded no page moves")
	}
	if len(v.Runtime().MoveStats) != moves {
		t.Errorf("move breakdowns = %d, want %d", len(v.Runtime().MoveStats), moves)
	}
}

func TestDifferentialOptimizedVsNaive(t *testing.T) {
	// Guard optimizations must not change program output (DESIGN invariant).
	for _, src := range []string{sumSrc} {
		mN := compile(t, src, passes.LevelGuardsOnly)
		mO := compile(t, src, passes.LevelGuardsOpt)
		cfg := DefaultConfig()
		cfg.MemBytes = 1 << 24
		cfg.HeapBytes = 1 << 20
		_, retN := run(t, mN, cfg)
		_, retO := run(t, mO, cfg)
		if retN != retO {
			t.Errorf("naive %d != optimized %d", retN, retO)
		}
	}
}

func TestTraditionalModeCountsTLBEvents(t *testing.T) {
	m := compile(t, sumSrc, passes.LevelNone)
	cfg := DefaultConfig()
	cfg.Mode = ModeTraditional
	cfg.MemBytes = 1 << 24
	cfg.HeapBytes = 1 << 20
	cfg.Paging = kernel.NewPagingModel(10, 0)
	v, ret := run(t, m, cfg)
	if ret != 63*64/2 {
		t.Fatalf("ret = %d", ret)
	}
	if v.Hierarchy().Stats.Lookups.Get() == 0 {
		t.Error("no TLB lookups in traditional mode")
	}
	if v.Hierarchy().Stats.Walks.Get() == 0 {
		t.Error("no pagewalks (demand paging should miss at least once)")
	}
	if cfg.Paging.PageAllocs == 0 {
		t.Error("paging model saw no allocations")
	}
}

// walkStormSrc touches one new page in each of 40 different 2 MB regions,
// eight rounds over: every access misses both TLB levels and walks, and 40
// page-directory prefixes cannot fit the 32-entry paging-structure cache, so
// it evicts on nearly every walk.
const walkStormSrc = `module "walkstorm"
func @malloc(%sz: i64) -> ptr
func @main() -> i64 {
entry:
  %buf = call ptr @malloc(i64 83886080)
  br ^round
round:
  %r = phi i64 [0, ^entry], [%r1, ^next]
  %row = mul i64 %r, 512
  br ^region
region:
  %i = phi i64 [0, ^round], [%i1, ^region]
  %col = mul i64 %i, 262144
  %idx = add i64 %col, %row
  %p = gep i64, %buf, %idx
  store i64 %i, %p
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 40
  condbr %c, ^region, ^next
next:
  %r1 = add i64 %r, 1
  %d = icmp slt i64 %r1, 8
  condbr %d, ^round, ^done
done:
  ret i64 0
}`

// TestTraditionalModeWalkCyclesDeterministic: modeled results are a function
// of module and seed. The paging-structure cache used to evict whichever key
// Go's map iteration produced first, so any run that overflowed it had
// run-to-run different walk cycles (Figure 2, Table 2).
func TestTraditionalModeWalkCyclesDeterministic(t *testing.T) {
	var cycles, walkCycles uint64
	for i := 0; i < 8; i++ {
		cfg := DefaultConfig()
		cfg.Mode = ModeTraditional
		cfg.MemBytes = 1 << 27
		cfg.HeapBytes = 96 << 20
		v, _ := run(t, compile(t, walkStormSrc, passes.LevelNone), cfg)
		st := &v.Hierarchy().Stats
		if st.Walks.Get() < 320 {
			t.Fatalf("%d walks, want one per access (320): the kernel does not stress the walk cache", st.Walks.Get())
		}
		if i == 0 {
			cycles, walkCycles = v.Cycles, st.WalkCycles.Get()
		} else if v.Cycles != cycles || st.WalkCycles.Get() != walkCycles {
			t.Fatalf("run %d: cycles %d, walk cycles %d; run 0 had %d and %d",
				i, v.Cycles, st.WalkCycles.Get(), cycles, walkCycles)
		}
	}
}

func TestCallsAndRecursion(t *testing.T) {
	src := `module "fib"
func @fib(%n: i64) -> i64 {
entry:
  %c = icmp slt i64 %n, 2
  condbr %c, ^base, ^rec
base:
  ret i64 %n
rec:
  %n1 = sub i64 %n, 1
  %n2 = sub i64 %n, 2
  %a = call i64 @fib(i64 %n1)
  %b = call i64 @fib(i64 %n2)
  %s = add i64 %a, %b
  ret i64 %s
}
func @main() -> i64 {
entry:
  %r = call i64 @fib(i64 15)
  ret i64 %r
}`
	m := compile(t, src, passes.LevelGuardsOpt)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 24
	cfg.HeapBytes = 1 << 18
	_, ret := run(t, m, cfg)
	if ret != 610 {
		t.Errorf("fib(15) = %d, want 610", ret)
	}
}

func TestAllocaAndStackDiscipline(t *testing.T) {
	src := `module "st"
func @leaf(%x: i64) -> i64 {
entry:
  %buf = alloca i64, 8
  %p = gep i64, %buf, 3
  store i64 %x, %p
  %y = load i64, %p
  ret i64 %y
}
func @main() -> i64 {
entry:
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %r = call i64 @leaf(i64 %i)
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 1000
  condbr %c, ^loop, ^done
done:
  ret i64 %r
}`
	// 1000 iterations of an 8-slot alloca: the stack must not leak
	// (allocas pop on return).
	m := compile(t, src, passes.LevelGuardsOnly)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 24
	cfg.HeapBytes = 1 << 18
	cfg.StackBytes = 1 << 16 // 64 KB: would overflow if allocas leaked
	_, ret := run(t, m, cfg)
	if ret != 999 {
		t.Errorf("result = %d, want 999", ret)
	}
}

func TestStackOverflowFaults(t *testing.T) {
	src := `module "so"
func @rec(%n: i64) -> i64 {
entry:
  %buf = alloca i64, 512
  store i64 %n, %buf
  %n1 = add i64 %n, 1
  %r = call i64 @rec(i64 %n1)
  ret i64 %r
}
func @main() -> i64 {
entry:
  %r = call i64 @rec(i64 0)
  ret i64 %r
}`
	m := compile(t, src, passes.LevelNone)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 24
	cfg.HeapBytes = 1 << 18
	cfg.StackBytes = 1 << 16
	v, _ := Load(m, cfg)
	if _, err := v.Run(); err == nil {
		t.Error("unbounded recursion did not fault")
	}
}

// TestVMPanicReachesCaller: the guest runs on the goroutine that called Run,
// so a Go panic inside guest execution — here a move-policy hook's — reaches
// Run's caller, which can recover it and still release the VM.
func TestVMPanicReachesCaller(t *testing.T) {
	for _, engine := range []bool{reference, compiled} {
		k := kernel.New(1 << 24)
		owned := k.OwnedPageCount()
		cfg := DefaultConfig()
		cfg.Kernel = k
		cfg.HeapBytes, cfg.StackBytes = 1<<16, 1<<16
		cfg.Closure = engine
		v, err := Load(xcacheModule(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		v.SetMovePolicy(100, func() error { panic("policy hook") })
		got := func() (r any) {
			defer func() { r = recover() }()
			v.Run()
			return nil
		}()
		if got != "policy hook" {
			t.Fatalf("compiled=%v: recovered %v, want the hook's panic", engine, got)
		}
		if err := v.Release(); err != nil {
			t.Fatalf("compiled=%v: Release: %v", engine, err)
		}
		if got := k.OwnedPageCount(); got != owned {
			t.Errorf("compiled=%v: %d pages owned after Release, %d before Load", engine, got, owned)
		}
	}
}

func TestIntegerWidthSemantics(t *testing.T) {
	src := `module "w"
func @main() -> i64 {
entry:
  %a = add i32 2147483647, 1
  %b = sext i32 %a to i64
  %c = zext i32 %a to i64
  %s = add i64 %b, %c
  ret i64 %s
}`
	m := compile(t, src, passes.LevelNone)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 22
	cfg.HeapBytes = 1 << 18
	_, ret := run(t, m, cfg)
	// i32 overflow wraps to -2147483648; sext = -2^31, zext = 2^31.
	if ret != 0 {
		t.Errorf("width semantics: got %d, want 0", ret)
	}
}

func TestSubWordMemoryAccess(t *testing.T) {
	src := `module "sw"
global @buf : [16 x i8]
func @main() -> i64 {
entry:
  %p = gep i8, @buf, 3
  store i8 -1, %p
  %x = load i8, %p
  %y = sext i8 %x to i64
  ret i64 %y
}`
	m := compile(t, src, passes.LevelGuardsOnly)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 22
	cfg.HeapBytes = 1 << 18
	_, ret := run(t, m, cfg)
	if ret != -1 {
		t.Errorf("i8 round trip = %d, want -1", ret)
	}
}

func TestDivisionByZeroTraps(t *testing.T) {
	src := `module "dz"
func @main() -> i64 {
entry:
  %z = sub i64 1, 1
  %d = sdiv i64 5, %z
  ret i64 %d
}`
	m := compile(t, src, passes.LevelNone)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 22
	cfg.HeapBytes = 1 << 18
	v, _ := Load(m, cfg)
	if _, err := v.Run(); stopReason(err) != StopTrap || !strings.Contains(err.Error(), "zero") {
		t.Errorf("division by zero: %v", err)
	}
}

func TestFloatArithmetic(t *testing.T) {
	src := `module "f"
func @main() -> i64 {
entry:
  %a = fadd f64 1.5, 2.25
  %b = fmul f64 %a, 4.0
  %c = fdiv f64 %b, 3.0
  %d = fsub f64 %c, 1.0
  %i = fptosi f64 %d to i64
  ret i64 %i
}`
	m := compile(t, src, passes.LevelNone)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 22
	cfg.HeapBytes = 1 << 18
	_, ret := run(t, m, cfg)
	if ret != 4 { // (3.75*4)/3 - 1 = 4
		t.Errorf("float chain = %d, want 4", ret)
	}
}

func TestMaxInstrsAborts(t *testing.T) {
	src := `module "inf"
func @main() -> i64 {
entry:
  br ^loop
loop:
  br ^loop
}`
	m := compile(t, src, passes.LevelNone)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 22
	cfg.HeapBytes = 1 << 18
	cfg.MaxInstrs = 100000
	v, _ := Load(m, cfg)
	if _, err := v.Run(); stopReason(err) != StopInstrLimit {
		t.Errorf("infinite loop: %v", err)
	}
}

// TestBoolEncodingsAgree: an i1 true is one value whichever instruction
// produced it — icmp, trunc, or i1 arithmetic (xor) — so eq, ne and slt
// between them, the fused compare-and-branch included, answer the same on
// both engines, and a stored i1 reads back as the byte 1. A signed predicate
// reads an i1 true as -1, as LLVM does: true slt false, in a compare, in a
// fused compare-and-branch and folded by ConstFold.
func TestBoolEncodingsAgree(t *testing.T) {
	const src = `module "bools"
global @g : i64
global @b : [8 x i8]
func @main() -> i64 {
entry:
  store i64 1, @g
  %one = load i64, @g
  %zero = sub i64 %one, %one
  %t = trunc i64 %one to i1
  %c = icmp eq i64 %one, %one
  %f = trunc i64 %zero to i1
  %x = xor i1 %f, 1
  %e1 = icmp eq i1 %t, %c
  %e2 = icmp eq i1 %x, %c
  %n1 = icmp ne i1 %t, %x
  %s1 = icmp slt i1 %t, %c
  %s2 = icmp slt i1 %c, %x
  %q0 = gep i8, @b, 0
  store i1 %t, %q0
  %q1 = gep i8, @b, 1
  store i1 %x, %q1
  %b0 = load i8, %q0
  %b1 = load i8, %q1
  %z1 = zext i1 %e1 to i64
  %z2 = zext i1 %e2 to i64
  %z3 = zext i1 %n1 to i64
  %z4 = zext i1 %s1 to i64
  %z5 = zext i1 %s2 to i64
  %w0 = sext i8 %b0 to i64
  %w1 = sext i8 %b1 to i64
  %r2 = mul i64 %z2, 10
  %r3 = mul i64 %z3, 100
  %r4 = mul i64 %z4, 1000
  %r5 = mul i64 %z5, 10000
  %r6 = mul i64 %w0, 100000
  %r7 = mul i64 %w1, 1000000
  %a1 = add i64 %z1, %r2
  %a2 = add i64 %a1, %r3
  %a3 = add i64 %a2, %r4
  %a4 = add i64 %a3, %r5
  %a5 = add i64 %a4, %r6
  %a6 = add i64 %a5, %r7
  %s3 = icmp slt i1 %t, %f
  %s4 = icmp sge i1 %t, %f
  %k1 = icmp slt i1 1, 0
  %k2 = icmp sgt i1 1, 0
  %z6 = zext i1 %s3 to i64
  %z7 = zext i1 %s4 to i64
  %z8 = zext i1 %k1 to i64
  %z9 = zext i1 %k2 to i64
  %r8 = mul i64 %z6, 10000000
  %r9 = mul i64 %z7, 100000000
  %r10 = mul i64 %z8, 1000000000
  %r11 = mul i64 %z9, 10000000000
  %a7 = add i64 %a6, %r8
  %a8 = add i64 %a7, %r9
  %a9 = add i64 %a8, %r10
  %a10 = add i64 %a9, %r11
  %e3 = icmp eq i1 %t, %x
  condbr %e3, ^same, ^differ
same:
  %s5 = icmp sgt i1 %f, %t
  condbr %s5, ^signed, ^differ
signed:
  ret i64 %a10
differ:
  ret i64 -1
}`
	for _, engine := range []bool{reference, compiled} {
		cfg := DefaultConfig()
		cfg.MemBytes, cfg.HeapBytes = 1<<22, 1<<18
		cfg.Closure = engine
		_, got := run(t, compile(t, src, passes.LevelNone), cfg)
		// e1, e2 true; ne and both equal-value slt false; both stored bytes
		// 1; true slt false, folded or not; true sge false neither way.
		if want := int64(1_011_100_011); got != want {
			t.Errorf("compiled=%v: got %d, want %d", engine, got, want)
		}
	}
}

// TestFoldedComparesMatchTheEngines: ConstFold reads a compare's constants
// as both engines read the same values at run time — at their width, an i1
// true as -1 to a signed predicate — including constants spelled outside
// their type's signed range (an i1 -1, an i8 255 or 128).
func TestFoldedComparesMatchTheEngines(t *testing.T) {
	const folded = `module "folded"
func @main() -> i64 {
entry:
  %%c = icmp %[1]s %[2]s %[3]d, %[4]d
  %%r = zext i1 %%c to i64
  ret i64 %%r
}`
	const ran = `module "ran"
global @g : [2 x i64]
func @main() -> i64 {
entry:
  %%pa = gep i64, @g, 0
  %%pb = gep i64, @g, 1
  store i64 %[3]d, %%pa
  store i64 %[4]d, %%pb
  %%la = load i64, %%pa
  %%lb = load i64, %%pb
  %%a = trunc i64 %%la to %[2]s
  %%b = trunc i64 %%lb to %[2]s
  %%c = icmp %[1]s %[2]s %%a, %%b
  %%r = zext i1 %%c to i64
  ret i64 %%r
}`
	cfg := DefaultConfig()
	cfg.MemBytes, cfg.HeapBytes = 1<<22, 1<<18
	for _, c := range []struct {
		typ  string
		a, b int64
	}{{"i1", -1, 1}, {"i1", 1, 0}, {"i1", 0, -1}, {"i8", 255, 0}, {"i8", -1, 1}, {"i8", 128, 0}} {
		for p := ir.PredEQ; p <= ir.PredUGE; p++ {
			for _, engine := range []bool{reference, compiled} {
				cfg.Closure = engine
				_, want := run(t, compile(t, fmt.Sprintf(ran, p, c.typ, c.a, c.b), passes.LevelNone), cfg)
				_, got := run(t, compile(t, fmt.Sprintf(folded, p, c.typ, c.a, c.b), passes.LevelNone), cfg)
				if got != want {
					t.Errorf("compiled=%v: icmp %s %s %d, %d folds to %d, runs to %d", engine, p, c.typ, c.a, c.b, got, want)
				}
			}
		}
	}
}

// TestNarrowConstantsCompareAtTheirWidth: an i8 constant spelled outside the
// signed range is the i8 value it wraps to — 255 is -1, 128 is -128 — so an
// i8 register compared against either spelling gets one answer, Go's int8
// answer, from every signed predicate (eq and ne too) on both engines.
func TestNarrowConstantsCompareAtTheirWidth(t *testing.T) {
	const src = `module "narrow"
global @g : i64
func @main() -> i64 {
entry:
  store i64 %[3]d, @g
  %%l = load i64, @g
  %%x = trunc i64 %%l to i8
  %%c = icmp %[1]s i8 %%x, %[2]d
  %%r = zext i1 %%c to i64
  ret i64 %%r
}`
	cfg := DefaultConfig()
	cfg.MemBytes, cfg.HeapBytes = 1<<22, 1<<18
	for _, x := range []int8{0, -1, 127, -128} {
		for _, k := range []int64{255, -1, 128, -128} {
			y := int8(k)
			for p, want := range map[ir.Pred]bool{ir.PredEQ: x == y, ir.PredNE: x != y, ir.PredLT: x < y,
				ir.PredLE: x <= y, ir.PredGT: x > y, ir.PredGE: x >= y} {
				for _, engine := range []bool{reference, compiled} {
					cfg.Closure = engine
					_, got := run(t, compile(t, fmt.Sprintf(src, p, k, x), passes.LevelNone), cfg)
					if got != map[bool]int64{false: 0, true: 1}[want] {
						t.Errorf("compiled=%v: icmp %s i8 %d, %d = %d, want %v", engine, p, x, k, got, want)
					}
				}
			}
		}
	}
}

// TestFoldedBinopsMatchTheEngines: ConstFold computes a narrow binop at its
// operand width, as both engines do: `udiv i8 -1, 2` is 127 and `sdiv i8 1,
// 255` is -1, whether the folder or the engine computes it.
func TestFoldedBinopsMatchTheEngines(t *testing.T) {
	const folded = `module "folded"
func @main() -> i64 {
entry:
  %%r = %[1]s i8 %[2]d, %[3]d
  %%w = sext i8 %%r to i64
  ret i64 %%w
}`
	const ran = `module "ran"
global @g : [2 x i64]
func @main() -> i64 {
entry:
  %%pa = gep i64, @g, 0
  %%pb = gep i64, @g, 1
  store i64 %[2]d, %%pa
  store i64 %[3]d, %%pb
  %%la = load i64, %%pa
  %%lb = load i64, %%pb
  %%a = trunc i64 %%la to i8
  %%b = trunc i64 %%lb to i8
  %%r = %[1]s i8 %%a, %%b
  %%w = sext i8 %%r to i64
  ret i64 %%w
}`
	cfg := DefaultConfig()
	cfg.MemBytes, cfg.HeapBytes = 1<<22, 1<<18
	for _, c := range []struct {
		op         string
		a, b, want int64
	}{{"udiv", -1, 2, 127}, {"sdiv", 1, 255, -1}} {
		for _, engine := range []bool{reference, compiled} {
			cfg.Closure = engine
			for _, src := range []string{folded, ran} {
				prog := fmt.Sprintf(src, c.op, c.a, c.b)
				if _, got := run(t, compile(t, prog, passes.LevelNone), cfg); got != c.want {
					t.Errorf("compiled=%v: %s i8 %d, %d in\n%s\nreturns %d, want %d", engine, c.op, c.a, c.b, prog, got, c.want)
				}
			}
		}
	}
}
