package vm

import (
	"errors"
	"testing"

	"carat/internal/guard"
	"carat/internal/passes"
	"carat/internal/runtime"
)

// The §6 extensions: allocation-granularity moves, the single-region
// capsule layout, and swap via non-canonical poison addresses.

const chaseSrc = `module "chase"
global @slot : ptr
func @malloc(%sz: i64) -> ptr
func @print_i64(%x: i64) -> void
func @main() -> i64 {
entry:
  %p = call ptr @malloc(i64 1024)
  store ptr %p, @slot
  br ^fill
fill:
  %i = phi i64 [0, ^entry], [%i1, ^fill]
  %base = load ptr, @slot
  %q = gep i64, %base, %i
  store i64 %i, %q
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 128
  condbr %c, ^fill, ^laps
laps:
  br ^lap
lap:
  %l = phi i64 [0, ^laps], [%l1, ^lapend]
  %b2 = load ptr, @slot
  br ^walk
walk:
  %j = phi i64 [0, ^lap], [%j1, ^walk]
  %s = phi i64 [0, ^lap], [%s1, ^walk]
  %r = gep i64, %b2, %j
  %x = load i64, %r
  %s1 = add i64 %s, %x
  %j1 = add i64 %j, 1
  %d = icmp slt i64 %j1, 128
  condbr %d, ^walk, ^lapend
lapend:
  call void @print_i64(i64 %s1)
  %l1 = add i64 %l, 1
  %lc = icmp slt i64 %l1, 30
  condbr %lc, ^lap, ^done
done:
  ret i64 0
}`

func loadChase(t *testing.T, capsule bool) *VM {
	t.Helper()
	m := compile(t, chaseSrc, passes.LevelTracking)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 24
	cfg.HeapBytes = 1 << 21
	cfg.Capsule = capsule
	v, err := Load(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func checkAllLaps(t *testing.T, v *VM) {
	t.Helper()
	const want = 127 * 128 / 2
	if len(v.Output) == 0 {
		t.Fatal("no laps recorded")
	}
	for i, s := range v.Output {
		if s != want {
			t.Fatalf("lap %d checksum = %d, want %d", i, s, want)
		}
	}
}

func TestAllocationGranularityMove(t *testing.T) {
	v := loadChase(t, false)
	moves := 0
	v.SetMovePolicy(3000, func() error {
		moves++
		return v.InjectWorstCaseAllocationMove()
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	checkAllLaps(t, v)
	if moves == 0 {
		t.Fatal("no allocation moves happened")
	}
	// Every breakdown must show zero expand cost (the point of §6).
	for _, bd := range v.Runtime().MoveStats {
		if bd.ExpandCycles != 0 {
			t.Errorf("allocation-granularity move has expand cost %d", bd.ExpandCycles)
		}
		if bd.AllocsMoved != 1 {
			t.Errorf("moved %d allocations, want exactly 1", bd.AllocsMoved)
		}
	}
	if err := v.Runtime().Table.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAllocationMoveCheaperThanPageMove(t *testing.T) {
	// The ablation behind Table 3's last column: allocation-granularity
	// prototype cost must be well below the page-granularity one.
	vp := loadChase(t, false)
	vp.SetMovePolicy(3000, func() error { return vp.InjectWorstCaseMove() })
	if _, err := vp.Run(); err != nil {
		t.Fatal(err)
	}
	va := loadChase(t, false)
	va.SetMovePolicy(3000, func() error { return va.InjectWorstCaseAllocationMove() })
	if _, err := va.Run(); err != nil {
		t.Fatal(err)
	}
	avg := func(stats []runtime.MoveBreakdown) float64 {
		var tot float64
		for _, bd := range stats {
			tot += float64(bd.TotalCycles())
		}
		return tot / float64(len(stats))
	}
	page := avg(vp.Runtime().MoveStats)
	alloc := avg(va.Runtime().MoveStats)
	if alloc*2 > page {
		t.Errorf("allocation move (%.0f cyc) not well below page move (%.0f cyc)", alloc, page)
	}
}

func TestCapsuleSingleRegion(t *testing.T) {
	v := loadChase(t, true)
	if n := v.Process().Regions.Len(); n != 1 {
		t.Fatalf("capsule layout produced %d regions, want 1: %s", n, v.Process().Regions)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	checkAllLaps(t, v)
}

func TestCapsuleGuardsCheaper(t *testing.T) {
	// The capsule is the optimal case for guards (§3): single-region
	// checks must make the guarded run cheaper than the multi-region one.
	run := func(capsule bool) uint64 {
		v := loadChase(t, capsule)
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
		return v.Cycles
	}
	multi := run(false)
	capsule := run(true)
	if capsule >= multi {
		t.Errorf("capsule (%d cyc) not cheaper than multi-region (%d cyc)", capsule, multi)
	}
}

// TestCapsuleThreadStacksFromHeap: in capsule mode @main's stack is carved
// from the heap (§3: "additional stacks are allocated from the process
// heap"), so the process stays one region while the stack is in use.
func TestCapsuleThreadStacksFromHeap(t *testing.T) {
	src := `module "capstack"
func @main() -> i64 {
entry:
  %s = alloca i64, 4
  %p = gep i64, %s, 3
  store i64 7, %p
  %v = load i64, %p
  ret i64 %v
}`
	m := compile(t, src, passes.LevelGuardsOnly)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 24
	cfg.HeapBytes = 1 << 21
	cfg.StackBytes = 1 << 16
	cfg.Capsule = true
	v, err := Load(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ret != 7 {
		t.Errorf("capsule result = %d, want 7", ret)
	}
	if st := v.world.main; st.stackBase < v.heap.base || st.stackTop > v.heap.end || st.minSP >= st.stackTop {
		t.Errorf("stack [%#x, %#x) (low water %#x) is not a used block of the heap [%#x, %#x)",
			st.stackBase, st.stackTop, st.minSP, v.heap.base, v.heap.end)
	}
	if v.Process().Regions.Len() != 1 {
		t.Error("the stack broke the single-region capsule")
	}
}

func TestSwapOutAndTransparentSwapIn(t *testing.T) {
	v := loadChase(t, false)
	swaps := 0
	v.SetMovePolicy(4000, func() error {
		// Evict the most-escaped heap allocation; execution must swap it
		// back in transparently at the next guarded use.
		base, _, ok := v.Runtime().WorstCaseHeapAllocation(v.heap.base, v.heap.end)
		if !ok {
			return nil
		}
		if _, err := v.SwapOutAllocation(base); err != nil {
			return err
		}
		swaps++
		return nil
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	checkAllLaps(t, v)
	if swaps == 0 {
		t.Fatal("no swap-outs happened")
	}
	st := &v.Runtime().Stats
	if st.SwapIns.Get() != st.SwapOuts.Get() {
		t.Errorf("swap-ins %d != swap-outs %d", st.SwapIns.Get(), st.SwapOuts.Get())
	}
	if err := v.Runtime().Table.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// swapCopySrc stores a pointer to a heap allocation holding 7 in slots[0],
// spins while the test swaps the allocation out, then copies the poisoned
// pointer to slots[1] and dereferences both: 14 if the copy was patched too.
const swapCopySrc = `module "swapcopy"
global @slots : [2 x ptr]
func @malloc(%sz: i64) -> ptr
func @main() -> i64 {
entry:
  %p = call ptr @malloc(i64 64)
  store i64 7, %p
  %s0 = gep ptr, @slots, 0
  store ptr %p, %s0
  br ^spin
spin:
  %i = phi i64 [0, ^entry], [%i1, ^spin]
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 3000
  condbr %c, ^spin, ^copy
copy:
  %t0 = gep ptr, @slots, 0
  %q = load ptr, %t0
  %t1 = gep ptr, @slots, 1
  store ptr %q, %t1
  %a = load ptr, %t0
  %x = load i64, %a
  %b = load ptr, %t1
  %y = load i64, %b
  %r = add i64 %x, %y
  ret i64 %r
}`

// TestCopiedSwappedPointerIsPatched: a tracked copy of a poisoned pointer is
// an escape like any other, so the swap-in its first dereference triggers
// patches the copy as well, and the second dereference finds the allocation
// resident. Both engines.
func TestCopiedSwappedPointerIsPatched(t *testing.T) {
	for _, engine := range []bool{reference, compiled} {
		m := compile(t, swapCopySrc, passes.LevelTracking)
		cfg := DefaultConfig()
		cfg.MemBytes = 1 << 22
		cfg.HeapBytes = 1 << 18
		cfg.Closure = engine
		v, err := Load(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		swapped := false
		v.SetMovePolicy(500, func() error {
			if swapped {
				return nil
			}
			base, _, ok := v.Runtime().WorstCaseHeapAllocation(v.heap.base, v.heap.end)
			if !ok {
				return errors.New("no heap allocation to swap out")
			}
			_, err := v.SwapOutAllocation(base)
			swapped = err == nil
			return err
		})
		ret, err := v.Run()
		if err != nil || ret != 14 {
			t.Errorf("compiled=%v: got %d, %v; want 14", engine, ret, err)
		}
		if st := &v.Runtime().Stats; !swapped || st.SwapOuts.Get() != 1 || st.SwapIns.Get() != 1 {
			t.Errorf("compiled=%v: %d swap-outs, %d swap-ins; want one of each", engine, st.SwapOuts.Get(), st.SwapIns.Get())
		}
	}
}

func TestSwapPoisonEncoding(t *testing.T) {
	p := runtimeSwapPoison(12, 345)
	slot, off, ok := runtime.DecodeSwapPoison(p)
	if !ok || slot != 12 || off != 345 {
		t.Errorf("decode = (%d,%d,%v), want (12,345,true)", slot, off, ok)
	}
	if _, _, ok := runtime.DecodeSwapPoison(0x1000); ok {
		t.Error("ordinary address decoded as swap poison")
	}
}

// runtimeSwapPoison mirrors the runtime's encoding for the test.
func runtimeSwapPoison(slot, off uint64) uint64 {
	return 0xFFFF_8000_0000_0000 | 1<<32 | slot<<16 | off
}

func TestGuardMechanismsUnderCapsule(t *testing.T) {
	for _, mech := range []guard.Mechanism{guard.MechRange, guard.MechMPX, guard.MechIfTree} {
		m := compile(t, chaseSrc, passes.LevelGuardsOpt)
		cfg := DefaultConfig()
		cfg.MemBytes = 1 << 24
		cfg.HeapBytes = 1 << 21
		cfg.Capsule = true
		cfg.GuardMech = mech
		v, err := Load(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Run(); err != nil {
			t.Fatalf("mech %v: %v", mech, err)
		}
		checkAllLaps(t, v)
	}
}

// Regression: with an empty stack, sp == stackTop is numerically the base
// of whatever the kernel placed just above the stack. Moving that adjacent
// page repeatedly must not drag the stack pointer along with it (it once
// did, corrupting the first alloca after thousands of moves).
func TestMovesOfAdjacentPagesDoNotCorruptSP(t *testing.T) {
	src := `module "spguard"
global @a : [4096 x i64]
func @main() -> i64 {
entry:
  br ^warm
warm:
  %i = phi i64 [0, ^entry], [%i1, ^warm]
  %p = gep i64, @a, %i
  store i64 %i, %p
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 4096
  condbr %c, ^warm, ^late
late:
  %acc = alloca i64, 1
  store i64 41, %acc
  %v = load i64, %acc
  %v1 = add i64 %v, 1
  ret i64 %v1
}`
	m := compile(t, src, passes.LevelTracking)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 24
	cfg.HeapBytes = 1 << 19
	v, err := Load(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Move constantly during the warm loop, long before the alloca runs.
	v.SetMovePolicy(500, func() error { return v.InjectWorstCaseMove() })
	ret, err := v.Run()
	if err != nil {
		t.Fatalf("run with dense moves: %v", err)
	}
	if ret != 42 {
		t.Errorf("result = %d, want 42", ret)
	}
	if v.Kernel().Stats.PageMoves.Get() == 0 {
		t.Fatal("no moves happened")
	}
}
