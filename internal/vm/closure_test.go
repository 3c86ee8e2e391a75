package vm

import (
	"testing"

	"carat/internal/guard"
	"carat/internal/passes"
)

// Exact-count tests for the compiled engine's counters. The counting model
// (see closure.go): compiled code survives every epoch bump — grants,
// releases, page moves — so nothing recompiles and nothing leaves the
// engine; the deopt position of ClosureStats is the constant 0. A compiled
// call site hits when its callee is already bound, and misses on the call
// that binds it.

// closureWorkerSrc calls @work 100 times through one call site, so the
// site's inline cache sees exactly one miss and 99 hits.
const closureWorkerSrc = `module "closworker"
global @a : [64 x i64]
func @work(%i: i64) -> i64 {
entry:
  %m = and i64 %i, 63
  %p = gep i64, @a, %m
  store i64 %i, %p
  %v = load i64, %p
  ret i64 %v
}
func @main() -> i64 {
entry:
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %acc = phi i64 [0, ^entry], [%acc1, ^loop]
  %v = call i64 @work(i64 %i)
  %acc1 = add i64 %acc, %v
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 100
  condbr %c, ^loop, ^done
done:
  ret i64 %acc1
}`

// closureLoopSrc is a call-free main: one compiled activation, sitting in a
// self-loop that reads a global, is live when the epoch bumps.
const closureLoopSrc = `module "closloop"
global @a : [64 x i64]
func @main() -> i64 {
entry:
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %acc = phi i64 [0, ^entry], [%acc1, ^loop]
  %m = and i64 %i, 63
  %p = gep i64, @a, %m
  store i64 %i, %p
  %v = load i64, %p
  %acc1 = add i64 %acc, %v
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 300
  condbr %c, ^loop, ^done
done:
  ret i64 %acc1
}`

// closureRun loads src on the compiled engine, applies tweak, runs, and
// returns the VM and result.
func closureRun(t *testing.T, src string, lvl passes.Level, tweak func(*VM)) (*VM, int64) {
	t.Helper()
	m := compile(t, src, lvl)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 23
	cfg.HeapBytes = 1 << 19
	v, err := Load(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tweak != nil {
		tweak(v)
	}
	ret, err := v.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v, ret
}

// TestClosureInlineCacheExactCounts: a hot monomorphic call site misses
// once (compiling the callee) and hits on every subsequent call; nothing
// deopts in a move-free run.
func TestClosureInlineCacheExactCounts(t *testing.T) {
	v, ret := closureRun(t, closureWorkerSrc, passes.LevelTracking, nil)
	if want := int64(100 * 99 / 2); ret != want {
		t.Fatalf("ret = %d, want %d", ret, want)
	}
	blocks, deopts, icHits, icMisses := v.ClosureStats()
	// main has 3 blocks (entry/loop/done), work has 1.
	if blocks != 4 {
		t.Errorf("blocks = %d, want 4 (main 3 + work 1)", blocks)
	}
	if deopts != 0 {
		t.Errorf("deopts = %d, want 0 (no epoch bumps)", deopts)
	}
	if icMisses != 1 {
		t.Errorf("ic_misses = %d, want 1 (first call compiles @work)", icMisses)
	}
	if icHits != 99 {
		t.Errorf("ic_hits = %d, want 99", icHits)
	}
	// The same counters must surface through the published metrics.
	if got := v.Obs().Counter("carat.vm.closure.ic_hits").Get(); got != icHits {
		t.Errorf("carat.vm.closure.ic_hits = %d, want %d", got, icHits)
	}
	if got := v.Obs().Counter("carat.vm.closure.deopts").Get(); got != deopts {
		t.Errorf("carat.vm.closure.deopts = %d, want %d", got, deopts)
	}
}

// referenceRun runs src on the reference interpreter with the closure
// tests' machine shape and returns the result.
func referenceRun(t *testing.T, src string, lvl passes.Level) int64 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 23
	cfg.HeapBytes = 1 << 19
	cfg.Closure = reference
	_, ret := run(t, compile(t, src, lvl), cfg)
	return ret
}

// once wraps a move-policy action so it fires on the first trigger only.
func once(fired *bool, fn func() error) func() error {
	return func() error {
		if *fired {
			return nil
		}
		*fired = true
		return fn()
	}
}

// TestClosureSurvivesEpochBump: a single region grant mid-run (an epoch
// bump, the same signal page moves raise) costs the live compiled activation
// nothing — no deopt, no recompile — and the result matches the reference
// interpreter.
func TestClosureSurvivesEpochBump(t *testing.T) {
	want := referenceRun(t, closureLoopSrc, passes.LevelTracking)
	granted := false
	v, ret := closureRun(t, closureLoopSrc, passes.LevelTracking, func(v *VM) {
		v.SetMovePolicy(500, once(&granted, func() error {
			_, err := v.Process().GrantRegion(4096, guard.PermRW)
			return err
		}))
	})
	if !granted {
		t.Fatal("move policy never fired; program too short")
	}
	if ret != want {
		t.Errorf("ret = %d, want %d (reference interpreter)", ret, want)
	}
	blocks, deopts, _, _ := v.ClosureStats()
	if deopts != 0 {
		t.Errorf("deopts = %d, want 0 (an epoch bump is not a deopt)", deopts)
	}
	if blocks != 3 {
		t.Errorf("blocks = %d, want 3 (entry/loop/done, compiled once)", blocks)
	}
}

// TestClosureSurvivesGrantAndRelease: a region granted and released again
// inside one safepoint bumps the region epoch twice and leaves the set as it
// was; the live activation stays compiled and the program result
// unperturbed.
func TestClosureSurvivesGrantAndRelease(t *testing.T) {
	want := referenceRun(t, closureLoopSrc, passes.LevelTracking)
	cycled := false
	v, ret := closureRun(t, closureLoopSrc, passes.LevelTracking, func(v *VM) {
		v.SetMovePolicy(500, once(&cycled, func() error {
			p := v.Process()
			epoch := p.Regions.Epoch
			base, err := p.GrantRegion(4096, guard.PermRW)
			if err != nil {
				return err
			}
			if err := p.ReleaseRegion(base, 4096); err != nil {
				return err
			}
			if p.Regions.Epoch < epoch+2 {
				t.Errorf("grant and release bumped the epoch %d -> %d, want two bumps", epoch, p.Regions.Epoch)
			}
			return nil
		}))
	})
	if !cycled {
		t.Fatal("move policy never fired; program too short")
	}
	if ret != want {
		t.Errorf("ret = %d, want %d (reference interpreter)", ret, want)
	}
	blocks, deopts, _, _ := v.ClosureStats()
	if deopts != 0 || blocks != 3 {
		t.Errorf("deopts = %d, blocks = %d, want 0 and 3 (nothing deopts, nothing recompiles)", deopts, blocks)
	}
}

// TestClosureReentryAfterDeopt keeps its name from the design in which an
// epoch bump deopted every live compiled activation and this test watched
// the tier recover. There is nothing to recover from now: with main and
// @work both compiled when the epoch bumps, nothing deopts, nothing
// recompiles, and main's call site stays as hot as in the move-free run.
func TestClosureReentryAfterDeopt(t *testing.T) {
	granted := false
	v, ret := closureRun(t, closureWorkerSrc, passes.LevelTracking, func(v *VM) {
		v.SetMovePolicy(500, once(&granted, func() error {
			_, err := v.Process().GrantRegion(4096, guard.PermRW)
			return err
		}))
	})
	if !granted {
		t.Fatal("move policy never fired; program too short")
	}
	if want := int64(100 * 99 / 2); ret != want {
		t.Fatalf("ret = %d, want %d", ret, want)
	}
	blocks, deopts, icHits, icMisses := v.ClosureStats()
	if deopts != 0 {
		t.Errorf("deopts = %d, want 0", deopts)
	}
	if blocks != 4 {
		t.Errorf("blocks = %d, want 4 (main 3 + work 1, compiled once)", blocks)
	}
	if icMisses != 1 || icHits != 99 {
		t.Errorf("ic hits/misses = %d/%d, want 99/1 (the site stays hot across the bump)", icHits, icMisses)
	}
}

// TestClosureParityUnderInjectedMoves is the belt-and-braces end-to-end
// leg: a worst-case move storm (real epoch bumps, not synthetic grants)
// leaves the compiled engine's result, modeled clock and memory identical
// to the reference interpreter's — without a single recompile.
func TestClosureParityUnderInjectedMoves(t *testing.T) {
	runOn := func(engine bool) (*VM, int64) {
		m := compile(t, closureWorkerSrc, passes.LevelTracking)
		cfg := DefaultConfig()
		cfg.MemBytes = 1 << 23
		cfg.HeapBytes = 1 << 19
		cfg.Closure = engine
		v, err := Load(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		v.SetMovePolicy(400, func() error { return v.InjectWorstCaseMove() })
		ret, err := v.Run()
		if err != nil {
			t.Fatalf("compiled=%v: %v", engine, err)
		}
		return v, ret
	}
	pv, pret := runOn(reference)
	cv, cret := runOn(compiled)
	if pret != cret {
		t.Errorf("ret: reference %d, compiled %d", pret, cret)
	}
	if pv.Instrs != cv.Instrs || pv.Cycles != cv.Cycles {
		t.Errorf("model diverged: instrs %d/%d, cycles %d/%d",
			pv.Instrs, cv.Instrs, pv.Cycles, cv.Cycles)
	}
	if pv.Kernel().Mem.Checksum() != cv.Kernel().Mem.Checksum() {
		t.Error("physical memory checksums diverged")
	}
	if cv.Runtime().Stats.Moves.Get() == 0 {
		t.Fatal("no move completed; the storm was not exercised")
	}
	blocks, deopts, _, _ := cv.ClosureStats()
	if deopts != 0 || blocks != 4 {
		t.Errorf("deopts = %d, blocks = %d, want 0 and 4 (moves neither deopt nor recompile)", deopts, blocks)
	}
}
