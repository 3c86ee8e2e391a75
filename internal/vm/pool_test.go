package vm

import (
	"fmt"
	"testing"

	"carat/internal/kernel"
	"carat/internal/passes"
)

// The compiled engine's constant pool is one more escape of every global and
// function address it bakes: a move that relocates one must patch the
// binding's pool AND the copy of it in every live closure frame, wherever
// that frame stands. InjectWorstCaseMove moves heap pages, so these
// tests move the globals page and the code page themselves, at the places a
// frame can be caught: inside a self-loop, and at a block head of a callee
// (a nested call, or a loop of its own) under a caller that sits mid-block at
// its call step. The mover is a move policy, which fires at a block-head
// safepoint of the guest.
//
// Every program checks its own addresses: entry stores @a and @work into
// pointer globals (tracked escapes, which the move protocol patches), and
// each trip of the hot loop plays the patched escape off against the operand
// itself — a pool register on the compiled engine. It stores through the
// pointer it loads back from @gslot and reads the element again through @a;
// it compares what it loads from @fslot with @work. A pool that missed a
// move names the vacated page: the read-back returns an old trip's value and
// the compare fails. (The store through a loaded pointer is also what keeps
// LICM from hoisting the loads out of the loop.)

// poolSelfCheck is the loop-body fragment that folds the two address checks
// into %acc (needs %i, %acc; defines %accN): %i read back, plus one.
const poolSelfCheck = `
  %ga = load ptr, @gslot
  %m = and i64 %i, 63
  %p = gep i64, %ga, %m
  store i64 %i, %p
  %q = gep i64, @a, %m
  %v = load i64, %q
  %fa = load ptr, @fslot
  %fe = icmp eq ptr %fa, @work
  %fz = zext i1 %fe to i64
  %acc1 = add i64 %acc, %v
  %accN = add i64 %acc1, %fz`

const poolGlobals = `
global @a : [64 x i64]
global @gslot : ptr
global @fslot : ptr
global @stop : i64
func @print_i64(%x: i64) -> void`

// The loop-exit compares: a fixed trip count for runs whose model must
// repeat exactly, or "until the mover sets @stop".
func poolTrips(n int) string { return fmt.Sprintf("%%c = icmp slt i64 %%i1, %d", n) }

const poolUntilStopped = `%f = load i64, @stop
  %c = icmp eq i64 %f, 0`

// poolWork is a callee with a loop of its own, so most safepoints of a
// program that calls it land inside it, under a caller mid-block.
const poolWork = `
func @work(%n: i64) -> i64 {
entry:
  br ^loop
loop:
  %j = phi i64 [0, ^entry], [%j1, ^loop]
  %s = phi i64 [0, ^entry], [%s1, ^loop]
  %q = gep i64, @a, %j
  %x = load i64, %q
  %s1 = add i64 %s, %x
  %j1 = add i64 %j, 1
  %c = icmp slt i64 %j1, %n
  condbr %c, ^loop, ^done
done:
  ret i64 %s1
}`

// poolLoopSrc: @main sits in a call-free self-loop reading @a and @work,
// leaving on exit (one of the compares above). It prints its trip count.
func poolLoopSrc(exit string) string {
	return `module "poolloop"` + poolGlobals + poolWork + `
func @main() -> i64 {
entry:
  store ptr @a, @gslot
  store ptr @work, @fslot
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %acc = phi i64 [0, ^entry], [%accN, ^loop]` + poolSelfCheck + `
  %i1 = add i64 %i, 1
  ` + exit + `
  condbr %c, ^loop, ^done
done:
  call void @print_i64(i64 %i1)
  ret i64 %accN
}`
}

// poolLoopWant is what the self-checking loop accumulates over n trips: Σi
// read back, plus one passed compare per trip.
func poolLoopWant(n int64) int64 { return n*(n-1)/2 + n }

// poolCallSrc: @main calls @work every trip and checks its addresses after
// the call returns, so a move inside @work catches @main's frame mid-block.
const poolCallSrc = `module "poolcall"` + poolGlobals + poolWork + `
func @main() -> i64 {
entry:
  store ptr @a, @gslot
  store ptr @work, @fslot
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %acc = phi i64 [0, ^entry], [%accN, ^loop]
  %w = call i64 @work(i64 48)` + poolSelfCheck + `
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 300
  condbr %c, ^loop, ^done
done:
  ret i64 %accN
}`

// poolWorkerSrc: @main calls @worker, which runs the self-checking loop, so a
// move catches @worker at a block head while @main's frame sits mid-block
// under its call step. @worker prints its trip count and leaves its sum in
// @out; @main reads @out and checks @work through its own pool afterwards and
// returns the sum plus one passed compare.
func poolWorkerSrc(exit string) string {
	return `module "poolworker"` + poolGlobals + poolWork + `
global @out : i64
func @worker() -> i64 {
entry:
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %acc = phi i64 [0, ^entry], [%accN, ^loop]` + poolSelfCheck + `
  %i1 = add i64 %i, 1
  ` + exit + `
  condbr %c, ^loop, ^done
done:
  store i64 %accN, @out
  call void @print_i64(i64 %i1)
  ret i64 0
}
func @main() -> i64 {
entry:
  store ptr @a, @gslot
  store ptr @work, @fslot
  %w = call i64 @worker()
  %v = load i64, @out
  %fa = load ptr, @fslot
  %fe = icmp eq ptr %fa, @work
  %fz = zext i1 %fe to i64
  %r = add i64 %v, %fz
  ret i64 %r
}`
}

// poolCfg is the tests' machine, on the compiled engine or the reference
// interpreter.
func poolCfg(engine bool) Config {
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 23
	cfg.HeapBytes = 1 << 19
	cfg.Closure = engine
	return cfg
}

// staticsMover moves a global's page (each global in turn) and the code page
// alternately, and audits the compiled engine's pools around every move.
type staticsMover struct {
	t *testing.T
	v *VM

	moves      int
	maxDepth   int // deepest call stack seen at a move
	maxPatched int // most live closure frames one move patched
	patched    int // live closure frames whose pool registers changed
}

// move relocates one static page and checks every live closure frame: its
// pool registers must equal a fresh bake against the rebased address tables,
// and — for a frame whose function names the moved global or function — must
// differ from what they held before.
func (s *staticsMover) move() error {
	v := s.v
	addr := v.globalPhys[s.moves/2%len(v.globalPhys)]
	if s.moves%2 == 1 {
		addr = v.funcPhys[0]
	}
	s.moves++
	var frames []*frame
	var before [][]uint64
	if th := v.world.main; th != nil {
		s.maxDepth = max(s.maxDepth, len(th.frames))
		for _, fr := range th.frames {
			if fr.fb.cf != nil {
				frames = append(frames, fr)
				before = append(before, append([]uint64(nil), fr.regs[fr.fb.nSlots:]...))
			}
		}
	}
	if _, err := v.Process().RequestMove(addr&^(kernel.PageSize-1), 1); err != nil {
		return err
	}
	patched := 0
	for i, fr := range frames {
		pool := fr.regs[fr.fb.nSlots:]
		changed := false
		for j, r := range fr.fb.cf.relocs {
			if want := v.relocAddr(r); pool[r.pool] != want {
				s.t.Errorf("move %d: frame of @%s: pool reloc %d = %#x, want %#x (stale after the move)",
					s.moves, fr.fb.fn.Name, j, pool[r.pool], want)
			}
			if pool[r.pool] != before[i][r.pool] {
				changed = true
			}
		}
		if changed {
			patched++
		}
	}
	s.patched += patched
	s.maxPatched = max(s.maxPatched, patched)
	return nil
}

// runPoolStorm runs src on the compiled engine or the reference interpreter
// under a statics move every period instructions and returns the VM, the
// result and the mover's audit.
func runPoolStorm(t *testing.T, src string, engine bool, period uint64) (*VM, int64, *staticsMover) {
	t.Helper()
	v, err := Load(compile(t, src, passes.LevelTracking), poolCfg(engine))
	if err != nil {
		t.Fatal(err)
	}
	s := &staticsMover{t: t, v: v}
	v.SetMovePolicy(period, s.move)
	ret, err := v.Run()
	if err != nil {
		t.Fatalf("compiled=%v: %v", engine, err)
	}
	return v, ret, s
}

// checkPoolStorm runs src under the statics storm on the reference
// interpreter and on the compiled engine and requires the same result, modeled
// clock and memory image from both — plus pools that really were patched, with
// no deopt or recompile.
func checkPoolStorm(t *testing.T, src string, period uint64) (int64, *staticsMover) {
	rv, want, rs := runPoolStorm(t, src, reference, period)
	cv, got, cs := runPoolStorm(t, src, compiled, period)
	if got != want {
		t.Errorf("ret = %d, want %d (reference interpreter)", got, want)
	}
	if cv.Instrs != rv.Instrs || cv.Cycles != rv.Cycles {
		t.Errorf("model diverged: instrs %d/%d, cycles %d/%d", cv.Instrs, rv.Instrs, cv.Cycles, rv.Cycles)
	}
	if cv.Kernel().Mem.Checksum() != rv.Kernel().Mem.Checksum() {
		t.Errorf("physical memory checksums diverged")
	}
	if cs.moves < 4 || cs.moves != rs.moves {
		t.Fatalf("%d moves on the compiled engine, %d on the reference; want the same, at least 4", cs.moves, rs.moves)
	}
	if cs.patched == 0 || cv.closureRepatches == 0 {
		t.Errorf("no pool value changed (%d live frames patched, %d pools re-baked)", cs.patched, cv.closureRepatches)
	}
	if got := cv.Obs().Counter("carat.vm.closure.repatches").Get(); got != cv.closureRepatches {
		t.Errorf("carat.vm.closure.repatches = %d, want %d", got, cv.closureRepatches)
	}
	if _, deopts, _, _ := cv.ClosureStats(); deopts != 0 {
		t.Errorf("deopts = %d, want 0", deopts)
	}
	return got, cs
}

// TestPoolPatchInSelfLoop: the move policy fires at a head of @main's
// self-loop block, and the activation goes on across the move.
func TestPoolPatchInSelfLoop(t *testing.T) {
	const trips = 2000
	if ret, _ := checkPoolStorm(t, poolLoopSrc(poolTrips(trips)), 900); ret != poolLoopWant(trips) {
		t.Errorf("ret = %d, want %d: an address check failed", ret, poolLoopWant(trips))
	}
}

// TestPoolPatchUnderNestedCall: most moves fire inside @work, with @main's
// frame mid-block at its call step. Every global-page move must patch both
// live frames.
func TestPoolPatchUnderNestedCall(t *testing.T) {
	_, s := checkPoolStorm(t, poolCallSrc, 700)
	if s.maxDepth < 2 {
		t.Errorf("no move fired under a nested call (deepest stack %d)", s.maxDepth)
	}
	if s.maxPatched < 2 {
		t.Errorf("no move patched both live frames (at most %d)", s.maxPatched)
	}
}

// TestPoolPatchParkedSibling: the move policy catches @worker at a block
// head of its loop while @main's frame sits mid-block under its call step.
// Both live frames must come back patched: @worker goes on checking its
// addresses, and @main reads @out and @work through its own pool afterwards.
func TestPoolPatchParkedSibling(t *testing.T) {
	const trips = 2000
	ret, s := checkPoolStorm(t, poolWorkerSrc(poolTrips(trips)), 700)
	if want := poolLoopWant(trips) + 1; ret != want {
		t.Errorf("ret = %d, want %d: an address check failed", ret, want)
	}
	if s.maxDepth < 2 {
		t.Errorf("no move fired under a nested call (deepest stack %d)", s.maxDepth)
	}
	if s.maxPatched < 2 {
		t.Errorf("no move patched both live frames (at most %d)", s.maxPatched)
	}
}

// TestPoolPatchInsideFastSelfLoop: @main's self-loop runs in one activation
// of the dispatch loop, which stops only at a block head. Once the loop is
// well under way, the move policy relocates the globals and the code page
// four times there, then sets @stop: the loop must carry on over the patched
// pool registers of its one live frame.
func TestPoolPatchInsideFastSelfLoop(t *testing.T) {
	v, err := Load(compile(t, poolLoopSrc(poolUntilStopped), passes.LevelTracking), poolCfg(compiled))
	if err != nil {
		t.Fatal(err)
	}
	s := &staticsMover{t: t, v: v}
	stop := v.prog.globalIdx[v.Module().Global("stop")]
	done := false
	v.SetMovePolicy(1000, func() error {
		if done {
			return nil
		}
		if th := v.world.main; th == nil || len(th.frames) != 1 || v.Instrs <= 10_000 {
			if v.Instrs > 1<<24 {
				return fmt.Errorf("the mover never caught the guest in its loop")
			}
			return nil
		}
		done = true
		for i := 0; i < 4; i++ {
			if err := s.move(); err != nil {
				return err
			}
		}
		v.kern.Mem.Store64(v.globalPhys[stop], 1)
		return nil
	})
	ret, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Output) != 1 || ret != poolLoopWant(v.Output[0]) {
		t.Errorf("ret = %d after %v trips: an address check failed", ret, v.Output)
	}
	if s.patched == 0 || v.closureRepatches == 0 {
		t.Errorf("no pool value changed (%d live frames patched, %d pools re-baked)", s.patched, v.closureRepatches)
	}
	if _, deopts, _, _ := v.ClosureStats(); deopts != 0 {
		t.Errorf("deopts = %d, want 0", deopts)
	}
}

// TestPoolInterningIsByIdentity: an immediate that equals a global's
// load-time address is a different constant from the global. Interned by
// value they would share one pool register, and the first globals-page move
// would drag the immediate along with the address.
func TestPoolInterningIsByIdentity(t *testing.T) {
	src := func(imm uint64) string {
		return fmt.Sprintf(`module "intern"
global @a : [64 x i64]
func @main() -> i64 {
entry:
  br ^loop
loop:
  %%i = phi i64 [0, ^entry], [%%i1, ^loop]
  %%acc = phi i64 [0, ^entry], [%%acc1, ^loop]
  %%m = and i64 %%i, 63
  %%p = gep i64, @a, %%m
  store i64 %%i, %%p
  %%v = load i64, %%p
  %%k = xor i64 %%v, %d
  %%acc1 = add i64 %%acc, %%k
  %%i1 = add i64 %%i, 1
  %%c = icmp slt i64 %%i1, 2000
  condbr %%c, ^loop, ^done
done:
  ret i64 %%acc1
}`, int64(imm))
	}
	// The layout depends on the module's shape, not on the immediate: load
	// once to learn where @a lands, then bake that address in as a number.
	probe, err := Load(compile(t, src(0), passes.LevelTracking), poolCfg(compiled))
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.globalPhys[0]

	var want int64
	for i := int64(0); i < 2000; i++ {
		want += i ^ int64(addr)
	}
	v, err := Load(compile(t, src(addr), passes.LevelTracking), poolCfg(compiled))
	if err != nil {
		t.Fatal(err)
	}
	if v.globalPhys[0] != addr {
		t.Fatalf("@a loaded at %#x, the probe saw %#x: the premise of the test is gone", v.globalPhys[0], addr)
	}
	s := &staticsMover{t: t, v: v}
	v.SetMovePolicy(900, func() error { s.moves = 0; return s.move() }) // the globals page, every time
	ret, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v.globalPhys[0] == addr || s.patched == 0 {
		t.Fatalf("@a never moved (still %#x, %d frames patched)", v.globalPhys[0], s.patched)
	}
	if ret != want {
		t.Errorf("ret = %d, want %d: the immediate %#x followed @a when it moved", ret, want, addr)
	}
}

// guardColdSrc: @peek makes guarded accesses whose guard operands are pool
// registers — the address of @cnt, and the access size of every guard — and
// has no loop, so nothing hoists them out of it. @main calls it every trip
// with a heap pointer it loads back from @slot, which a swap-out poisons.
const guardColdSrc = `module "guardcold"
global @cnt : i64
global @slot : ptr
func @malloc(%n: i64) -> ptr
func @peek(%p: ptr, %i: i64) -> i64 {
entry:
  %x = load i64, @cnt
  %x1 = add i64 %x, %i
  store i64 %x1, @cnt
  %m = and i64 %i, 255
  %q = gep i64, %p, %m
  store i64 %i, %q
  %v = load i64, %q
  ret i64 %v
}
func @main() -> i64 {
entry:
  %buf = call ptr @malloc(i64 2048)
  store ptr %buf, @slot
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %acc = phi i64 [0, ^entry], [%acc1, ^loop]
  %h = load ptr, @slot
  %v = call i64 @peek(ptr %h, i64 %i)
  %acc1 = add i64 %acc, %v
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 1500
  condbr %c, ^loop, ^done
done:
  %r = load i64, @cnt
  %s = add i64 %acc1, %r
  ret i64 %s
}`

// TestGuardColdPathReadsPoolRegisters drives fused access guards whose
// operands are pool registers onto their cold path (guardCold) both ways a
// run gets there: after a globals-page move — the move flushes every xcache,
// so the next guarded access to @cnt misses and walks with the address the
// move patched into the pool, the frame's own copy included when the move
// caught @peek live — and under a guard-miss swap-in of the buffer, with the
// size read from the pool. Result, model and memory must equal the reference
// interpreter's, which reads the global's address live.
func TestGuardColdPathReadsPoolRegisters(t *testing.T) {
	_, clean := accessRun(t, guardColdSrc, passes.LevelTracking, smallConfig(), compiled, nil)
	if clean.err != "" {
		t.Fatal(clean.err)
	}
	var s *staticsMover
	v, r := accessParity(t, guardColdSrc, passes.LevelTracking, smallConfig(), func(v *VM) {
		s = &staticsMover{t: t, v: v}
		n := 0
		v.SetMovePolicy(450, func() error {
			if n++; n%2 == 1 {
				return s.move()
			}
			base, _, ok := v.Runtime().WorstCaseHeapAllocation(v.heap.base, v.heap.end)
			if !ok {
				return nil
			}
			_, err := v.SwapOutAllocation(base)
			return err
		})
	})
	if r.err != "" || r.ret != clean.ret {
		t.Fatalf("with moves and swaps: ret %d, err %q; without: ret %d", r.ret, r.err, clean.ret)
	}
	if n := AccessShapes(v.prog); n[1][0]+n[1][1] < 3 {
		t.Fatalf("shapes %v: want the three guarded accesses of @peek, the test covers nothing", n)
	}
	if s.moves < 4 || s.patched == 0 || s.maxDepth < 2 {
		t.Errorf("%d statics moves, %d live frames patched, deepest stack %d: want several moves, some under @peek",
			s.moves, s.patched, s.maxDepth)
	}
	if n := v.Runtime().Stats.SwapIns.Get(); n < 3 {
		t.Errorf("%d swap-ins, want several: the poison never reached a guard", n)
	}
	if _, misses, _ := v.XCacheStats(); misses < uint64(s.moves) {
		t.Errorf("%d xcache misses over %d moves: the guards never took their cold path", misses, s.moves)
	}
}
