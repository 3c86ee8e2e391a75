package vm

import (
	"fmt"
	"testing"

	"carat/internal/guard"
	"carat/internal/passes"
)

// Native Go fuzz targets over the differential-fuzz invariant: the seed IS
// the program (genProgram is total over int64), so the fuzzer explores
// program space by mutating seeds. The corpora below are drawn from the
// deterministic seed ranges the table-driven differential tests sweep, so
// `go test` without -fuzz still replays known-interesting programs. CI
// runs each target for a short budget (see the Makefile fuzz target).

// fuzzRun compiles one seed at a level and runs it on the compiled engine,
// returning the result. Unlike runSeed it reports failures instead of
// t.Fatal-ing so the fuzzer can minimize.
func fuzzRun(t *testing.T, seed int64, lvl passes.Level, tweak func(*VM)) (int64, bool) {
	return fuzzRunEngine(t, seed, lvl, compiled, tweak)
}

// fuzzRunEngine is fuzzRun with an engine choice (reference or compiled).
func fuzzRunEngine(t *testing.T, seed int64, lvl passes.Level, engine bool,
	tweak func(*VM)) (int64, bool) {
	m := genProgram(seed)
	pl := passes.Build(lvl)
	if err := pl.Run(m); err != nil {
		t.Errorf("seed %d: passes: %v", seed, err)
		return 0, false
	}
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 23
	cfg.HeapBytes = 1 << 19
	cfg.GuardMech = guard.MechRange
	cfg.Closure = engine
	v, err := Load(m, cfg)
	if err != nil {
		t.Errorf("seed %d: load: %v", seed, err)
		return 0, false
	}
	if tweak != nil {
		tweak(v)
	}
	ret, err := v.Run()
	if err != nil {
		t.Errorf("seed %d: run: %v", seed, err)
		return 0, false
	}
	return ret, true
}

// FuzzDifferentialPipeline: every pipeline level computes, on the compiled
// engine, the result the reference interpreter gives the uninstrumented
// program.
func FuzzDifferentialPipeline(f *testing.F) {
	for _, seed := range []int64{1, 7, 19, 33, 40, 50, 57, 65} {
		f.Add(seed)
	}
	levels := []passes.Level{
		passes.LevelNone, passes.LevelGuardsOnly, passes.LevelGuardsOpt,
		passes.LevelTracking, passes.LevelTrackingOnly,
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		want, ok := fuzzRunEngine(t, seed, passes.LevelNone, reference, nil)
		if !ok {
			return
		}
		for _, lvl := range levels {
			if got, ok := fuzzRun(t, seed, lvl, nil); ok && got != want {
				t.Errorf("seed %d level %d: got %d, want %d", seed, lvl, got, want)
			}
		}
	})
}

// FuzzDifferentialMoves: concurrent page moves and swaps are invisible to the
// tracked program — worst-case moves of its most-escaped page, moves of its
// globals and code pages, which the compiled engine's constant pools bake,
// and swap-outs of its most-escaped heap allocation, which its next guarded
// use swaps back in. Seeds 108 and 139 are global-heavy: three global arrays
// and no heap, so every access goes through a global operand. Seed 689 frees
// an allocation while it is swapped out.
func FuzzDifferentialMoves(f *testing.F) {
	for _, seed := range movesCorpus {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		want, ok := fuzzRunEngine(t, seed, passes.LevelTracking, reference, nil)
		if !ok {
			return
		}
		movePolicy := func(v *VM) {
			v.SetMovePolicy(750, func() error { return v.InjectWorstCaseMove() })
		}
		if got, ok := fuzzRun(t, seed, passes.LevelTracking, movePolicy); ok && got != want {
			t.Errorf("seed %d with page moves: got %d, want %d", seed, got, want)
		}
		staticsPolicy := func(v *VM) {
			v.SetMovePolicy(750, (&staticsMover{t: t, v: v}).move)
		}
		if got, ok := fuzzRun(t, seed, passes.LevelTracking, staticsPolicy); ok && got != want {
			t.Errorf("seed %d with globals and code moves: got %d, want %d", seed, got, want)
		}
		if got, ok := fuzzRun(t, seed, passes.LevelTracking, swapPolicy); ok && got != want {
			t.Errorf("seed %d with swaps: got %d, want %d", seed, got, want)
		}
	})
}

// movesCorpus is FuzzDifferentialMoves' corpus. Every seed's swap leg swaps
// (TestMovesCorpusSwaps) but the global-heavy ones', whose programs have no
// heap: staticsSeeds.
var movesCorpus = []int64{100, 108, 111, 125, 139, 150, 212, 241, 689}

var staticsSeeds = map[int64]bool{108: true, 139: true}

// swapPolicy is FuzzDifferentialMoves' swap leg: every 750 instructions,
// swap out the most-escaped heap allocation.
func swapPolicy(v *VM) {
	v.SetMovePolicy(750, func() error {
		base, length, ok := v.Runtime().WorstCaseHeapAllocation(v.heap.base, v.heap.end)
		if !ok || length > 1<<16 { // nothing on the heap, or too big for a swap slot
			return nil
		}
		_, err := v.SwapOutAllocation(base)
		return err
	})
}

// TestMovesCorpusSwaps: a corpus seed whose swap leg swaps nothing compares
// two plain runs, and covers neither swap direction. And some seed's swaps
// must carry an escape inside the swapped allocation (genProgram's second
// block), or the leg never checks that one is patched.
func TestMovesCorpusSwaps(t *testing.T) {
	var rebased uint64
	for _, seed := range movesCorpus {
		if staticsSeeds[seed] {
			continue
		}
		var v *VM
		fuzzRun(t, seed, passes.LevelTracking, func(x *VM) { v = x; swapPolicy(x) })
		if v == nil {
			continue // fuzzRun reported why
		}
		if n := v.Runtime().Stats.SwapOuts.Get(); n == 0 {
			t.Errorf("seed %d: the swap leg made no swap-out", seed)
		}
		t.Logf("seed %d: %d escape locations rebased", seed, v.Runtime().Stats.RebaseMoved.Get())
		rebased += v.Runtime().Stats.RebaseMoved.Get()
	}
	if rebased == 0 {
		t.Error("no corpus seed's swap leg moved an escape location inside a swapped allocation")
	}
}

// FuzzGuardsAgreeOnForgedPointers: guard optimization must never change
// whether an access is admitted. For a fuzzer-chosen forged address,
// optimized guards must trap exactly when unoptimized guards do (and,
// when both admit, the loaded value must match).
func FuzzGuardsAgreeOnForgedPointers(f *testing.F) {
	for _, addr := range []uint64{0, 8, 4096, 87654321000, 1 << 40, ^uint64(0) &^ 7} {
		f.Add(addr)
	}
	f.Fuzz(func(t *testing.T, addr uint64) {
		addr &^= 7 // the interpreter requires aligned 8-byte loads
		// The IR parser reads i64 literals as signed; the bit pattern is
		// what inttoptr cares about.
		src := fmt.Sprintf(`module "forge"
func @main() -> i64 {
entry:
  %%p = inttoptr i64 %d to ptr
  %%v = load i64, %%p
  ret i64 %%v
}`, int64(addr))
		run := func(lvl passes.Level) (int64, error) {
			m := compile(t, src, lvl)
			cfg := DefaultConfig()
			cfg.MemBytes = 1 << 22
			cfg.HeapBytes = 1 << 18
			v, err := Load(m, cfg)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			return v.Run()
		}
		wantRet, wantErr := run(passes.LevelGuardsOnly)
		for _, lvl := range []passes.Level{passes.LevelGuardsOpt, passes.LevelTracking} {
			gotRet, gotErr := run(lvl)
			if (gotErr == nil) != (wantErr == nil) {
				t.Errorf("addr %#x level %d: err %v, unoptimized err %v", addr, lvl, gotErr, wantErr)
			} else if gotErr == nil && gotRet != wantRet {
				t.Errorf("addr %#x level %d: got %d, want %d", addr, lvl, gotRet, wantRet)
			}
		}
	})
}
