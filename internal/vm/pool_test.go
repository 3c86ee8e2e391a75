package vm

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"carat/internal/kernel"
	"carat/internal/passes"
)

// The compiled engine's constant pool is one more escape of every global and
// function address it bakes: a move that relocates one must patch the
// binding's pool AND the copy of it in every live closure frame, wherever
// that frame is suspended. InjectWorstCaseMove moves heap pages, so these
// tests move the globals page and the code page themselves, at the three
// places a frame can be caught: inside a self-loop, mid-block under a nested
// call, and — in a process with several threads — parked at a block head
// beside a sibling blocked in a join. The mover is a move policy (which
// fires at a block-head safepoint of the running thread) or an external
// goroutine that suspends the process first.
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
// repeat exactly, or — for runs an external mover has to catch mid-loop,
// however the host schedules it — "until someone sets @stop".
func poolTrips(n int) string { return fmt.Sprintf("%%c = icmp slt i64 %%i1, %d", n) }

const poolUntilStopped = `%f = load i64, @stop
  %c = icmp eq i64 %f, 0`

// poolWork is a callee with a loop of its own, so most safepoints of a
// program that calls it land inside it, under a suspended caller.
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

// poolThreadSrc: two workers run the self-checking loop until stopped, one
// after the other (the baton goes to the first ready thread), while @main is
// blocked mid-block in thread_join — so a move finds two threads with live
// closure frames: the worker at a block head, @main under its call step.
// Each worker prints its trip count; @main returns the sum of their results.
const poolThreadSrc = `module "poolthr"` + poolGlobals + poolWork + `
global @out : [2 x i64]
func @thread_spawn(%fn: ptr, %arg: ptr) -> i64
func @thread_join(%tid: i64) -> void
func @worker(%arg: ptr) -> i64 {
entry:
  %idx = ptrtoint ptr %arg to i64
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %acc = phi i64 [0, ^entry], [%accN, ^loop]` + poolSelfCheck + `
  %i1 = add i64 %i, 1
  ` + poolUntilStopped + `
  condbr %c, ^loop, ^done
done:
  %o = gep i64, @out, %idx
  store i64 %accN, %o
  call void @print_i64(i64 %i1)
  ret i64 0
}
func @main() -> i64 {
entry:
  store ptr @a, @gslot
  store ptr @work, @fslot
  %a0 = inttoptr i64 0 to ptr
  %a1 = inttoptr i64 1 to ptr
  %t0 = call i64 @thread_spawn(ptr @worker, ptr %a0)
  %t1 = call i64 @thread_spawn(ptr @worker, ptr %a1)
  call void @thread_join(i64 %t0)
  call void @thread_join(i64 %t1)
  %p0 = gep i64, @out, 0
  %v0 = load i64, %p0
  %p1 = gep i64, @out, 1
  %v1 = load i64, %p1
  %r = add i64 %v0, %v1
  ret i64 %r
}`

// poolCfg is the tests' machine, on the compiled engine or the reference
// interpreter.
func poolCfg(engine bool, budget uint64) Config {
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 23
	cfg.HeapBytes = 1 << 19
	cfg.Closure = engine
	cfg.PauseBudget = budget
	return cfg
}

// staticsMover moves a global's page (each global in turn) and the code page
// alternately, and audits the compiled engine's pools around every move.
type staticsMover struct {
	t *testing.T
	v *VM

	moves      int
	maxDepth   int // deepest call stack of any thread seen at a move
	maxThreads int // most threads with live frames seen at a move
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
	threads := 0
	for _, th := range v.sched.threads {
		if len(th.frames) > 0 {
			threads++
		}
		if len(th.frames) > s.maxDepth {
			s.maxDepth = len(th.frames)
		}
		for _, fr := range th.frames {
			if fr.fb.cf != nil {
				frames = append(frames, fr)
				before = append(before, append([]uint64(nil), fr.regs[fr.fb.nSlots:]...))
			}
		}
	}
	if threads > s.maxThreads {
		s.maxThreads = threads
	}
	if _, err := v.Process().RequestMove(addr&^(kernel.PageSize-1), 1); err != nil {
		return err
	}
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
			s.patched++
		}
	}
	return nil
}

// runPoolStorm runs src on the compiled engine or the reference interpreter
// under a statics move every period instructions and returns the VM, the
// result and the mover's audit.
func runPoolStorm(t *testing.T, src string, engine bool, budget, period uint64) (*VM, int64, *staticsMover) {
	t.Helper()
	v, err := Load(compile(t, src, passes.LevelTracking), poolCfg(engine, budget))
	if err != nil {
		t.Fatal(err)
	}
	s := &staticsMover{t: t, v: v}
	v.SetMovePolicy(period, s.move)
	ret, err := v.Run()
	if err != nil {
		t.Fatalf("compiled=%v budget=%d: %v", engine, budget, err)
	}
	return v, ret, s
}

// checkPoolStorm runs src under the statics storm on the reference
// interpreter and on the compiled engine, at an unbounded and a bounded pause
// budget, and requires the same result, modeled clock and memory image from
// both — plus pools that really were patched, with no deopt or recompile.
func checkPoolStorm(t *testing.T, src string, period uint64) (ret int64, audit *staticsMover) {
	for _, budget := range []uint64{0, 1000} {
		rv, want, rs := runPoolStorm(t, src, reference, budget, period)
		cv, got, cs := runPoolStorm(t, src, compiled, budget, period)
		if got != want {
			t.Errorf("budget %d: ret = %d, want %d (reference interpreter)", budget, got, want)
		}
		if cv.Instrs != rv.Instrs || cv.Cycles != rv.Cycles {
			t.Errorf("budget %d: model diverged: instrs %d/%d, cycles %d/%d",
				budget, cv.Instrs, rv.Instrs, cv.Cycles, rv.Cycles)
		}
		if cv.Kernel().Mem.Checksum() != rv.Kernel().Mem.Checksum() {
			t.Errorf("budget %d: physical memory checksums diverged", budget)
		}
		if cs.moves < 4 || cs.moves != rs.moves {
			t.Fatalf("budget %d: %d moves on the compiled engine, %d on the reference; want the same, at least 4",
				budget, cs.moves, rs.moves)
		}
		if cs.patched == 0 || cv.closureRepatches == 0 {
			t.Errorf("budget %d: no pool value changed (%d live frames patched, %d pools re-baked)",
				budget, cs.patched, cv.closureRepatches)
		}
		if got := cv.Obs().Counter("carat.vm.closure.repatches").Get(); got != cv.closureRepatches {
			t.Errorf("budget %d: carat.vm.closure.repatches = %d, want %d", budget, got, cv.closureRepatches)
		}
		if _, deopts, _, _ := cv.ClosureStats(); deopts != 0 {
			t.Errorf("budget %d: deopts = %d, want 0", budget, deopts)
		}
		ret, audit = got, cs
	}
	return ret, audit
}

// TestPoolPatchInSelfLoop: the move policy fires at the head of @main's
// self-loop (the observed path: one iteration per run() call).
func TestPoolPatchInSelfLoop(t *testing.T) {
	const trips = 2000
	if ret, _ := checkPoolStorm(t, poolLoopSrc(poolTrips(trips)), 900); ret != poolLoopWant(trips) {
		t.Errorf("ret = %d, want %d: an address check failed", ret, poolLoopWant(trips))
	}
}

// TestPoolPatchUnderNestedCall: most moves fire inside @work, with @main's
// frame suspended mid-block at its call step.
func TestPoolPatchUnderNestedCall(t *testing.T) {
	if _, s := checkPoolStorm(t, poolCallSrc, 700); s.maxDepth < 2 {
		t.Errorf("no move fired under a nested call (deepest stack %d)", s.maxDepth)
	}
}

// moveWhileSuspended runs v — a program that loops until @stop is set —
// while a second goroutine suspends it over and over until caught() holds.
// While suspended that goroutine owns every piece of VM state: it moves the
// statics four times under the one suspension, sets @stop where the global
// now lives, and lets the guest finish. Returns the run's result.
func moveWhileSuspended(t *testing.T, v *VM, s *staticsMover, caught func() bool) int64 {
	t.Helper()
	stop := v.prog.globalIdx[v.Module().Global("stop")]
	moved := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for {
			resume := v.Suspend()
			late := time.Now().After(deadline)
			if caught() || late {
				var err error
				if late {
					err = fmt.Errorf("the mover never caught the guest in its loop")
				}
				for i := 0; i < 4 && err == nil; i++ {
					err = s.move()
				}
				v.kern.Mem.Store64(v.globalPhys[stop], 1)
				resume()
				moved <- err
				return
			}
			resume()
			runtime.Gosched()
		}
	}()
	ret, err := v.Run()
	if merr := <-moved; merr != nil {
		t.Fatal(merr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if s.patched == 0 || v.closureRepatches == 0 {
		t.Errorf("no pool value changed (%d live frames patched, %d pools re-baked)", s.patched, v.closureRepatches)
	}
	if _, deopts, _, _ := v.ClosureStats(); deopts != 0 {
		t.Errorf("deopts = %d, want 0", deopts)
	}
	return ret
}

// TestPoolPatchInsideFastSelfLoop: with no move policy attached @main's
// self-loop iterates inside one run() call, parking only at a virtual block
// head. An external mover suspends it there, relocates the globals and the
// code page, and resumes it: the loop must carry on over the patched pool
// registers of its one live frame.
func TestPoolPatchInsideFastSelfLoop(t *testing.T) {
	for _, budget := range []uint64{0, 1000} {
		v, err := Load(compile(t, poolLoopSrc(poolUntilStopped), passes.LevelTracking), poolCfg(compiled, budget))
		if err != nil {
			t.Fatal(err)
		}
		s := &staticsMover{t: t, v: v}
		ret := moveWhileSuspended(t, v, s, func() bool {
			return len(v.sched.threads) == 1 && len(v.sched.threads[0].frames) == 1 && v.Instrs > 10_000
		})
		if len(v.Output) != 1 || ret != poolLoopWant(v.Output[0]) {
			t.Errorf("budget %d: ret = %d after %v trips: an address check failed", budget, ret, v.Output)
		}
	}
}

// TestPoolPatchParkedSibling: an external mover catches a worker thread
// parked at a block head of its loop while @main sits in thread_join. Both
// live frames must come back patched: the worker goes on checking its
// addresses, and @main reads @out through its own pool afterwards.
func TestPoolPatchParkedSibling(t *testing.T) {
	for _, budget := range []uint64{0, 1000} {
		v, err := Load(compile(t, poolThreadSrc, passes.LevelTracking), poolCfg(compiled, budget))
		if err != nil {
			t.Fatal(err)
		}
		s := &staticsMover{t: t, v: v}
		ret := moveWhileSuspended(t, v, s, func() bool {
			live := 0
			for _, th := range v.sched.threads {
				if len(th.frames) > 0 {
					live++
				}
			}
			return live >= 2 && v.Instrs > 10_000
		})
		if len(v.Output) != 2 || ret != poolLoopWant(v.Output[0])+poolLoopWant(v.Output[1]) {
			t.Errorf("budget %d: ret = %d after %v trips: an address check failed", budget, ret, v.Output)
		}
		if s.maxThreads < 2 {
			t.Errorf("budget %d: the moves found %d threads with live frames, want 2", budget, s.maxThreads)
		}
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
	probe, err := Load(compile(t, src(0), passes.LevelTracking), poolCfg(compiled, 0))
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.globalPhys[0]

	var want int64
	for i := int64(0); i < 2000; i++ {
		want += i ^ int64(addr)
	}
	v, err := Load(compile(t, src(addr), passes.LevelTracking), poolCfg(compiled, 0))
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
