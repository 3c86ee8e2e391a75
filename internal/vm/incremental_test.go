package vm

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"carat/internal/guard"
	"carat/internal/passes"
	"carat/internal/runtime"
	"carat/internal/worldtest"
)

// The pause-budget parity matrix: a move must be observationally identical
// at every pause budget — same program results, same modeled cycle clock,
// same physical memory image, same metrics — except for the
// pause-attribution metrics themselves, which are the whole point of the
// knob.

// pauseMetric reports whether a metric name is pause attribution: the pause
// histograms (all causes) and the batch-window counter. These are the only
// metrics allowed to differ between pause budgets.
func pauseMetric(name string) bool {
	return strings.HasPrefix(name, runtime.PauseHist) || name == "carat.runtime.batch_pauses"
}

// engineMetric reports whether a metric name is the compiled engine's own
// host-side bookkeeping — its lowering counters and its guard/translation
// cache — which the reference interpreter has none of. Everything else must
// match byte-for-byte across engines.
func engineMetric(name string) bool {
	return strings.HasPrefix(name, "carat.vm.closure.") || strings.HasPrefix(name, "carat.vm.xcache.")
}

// seedDigest is everything one fuzz-seed run must reproduce across budgets.
type seedDigest struct {
	ret     int64
	cycles  uint64
	memSum  uint64
	metrics string
}

// runSeedDigest runs a fuzz seed under worst-case page moves and digests
// the observable outcome, excluding pause-attribution and engine-bookkeeping
// metrics.
func runSeedDigest(t *testing.T, seed int64, budget uint64, engine bool) seedDigest {
	t.Helper()
	m := genProgram(seed)
	pl := passes.Build(passes.LevelTracking)
	if err := pl.Run(m); err != nil {
		t.Fatalf("seed %d: passes: %v", seed, err)
	}
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 23
	cfg.HeapBytes = 1 << 19
	cfg.GuardMech = guard.MechRange
	cfg.PauseBudget = budget
	cfg.Closure = engine
	v, err := Load(m, cfg)
	if err != nil {
		t.Fatalf("seed %d: load: %v", seed, err)
	}
	v.SetMovePolicy(750, func() error { return v.InjectWorstCaseMove() })
	ret, err := v.Run()
	if err != nil {
		t.Fatalf("seed %d (budget=%d compiled=%v): run: %v", seed, budget, engine, err)
	}

	snap := v.Obs().Snapshot()
	for name := range snap.Counters {
		if pauseMetric(name) || engineMetric(name) {
			delete(snap.Counters, name)
		}
	}
	for name := range snap.Histograms {
		if pauseMetric(name) || engineMetric(name) {
			delete(snap.Histograms, name)
		}
	}
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return seedDigest{
		ret:     ret,
		cycles:  v.Cycles,
		memSum:  v.Kernel().Mem.Checksum(),
		metrics: string(js),
	}
}

// minBudget is the smallest effective pause budget: the smallest windows,
// so the most boundaries.
var minBudget = runtime.PauseBound(runtime.MinMoveBatch)

// TestIncrementalParityMatrix runs the existing differential fuzz seeds
// under budgets {0, minimum, 1000} x {reference, compiled} and requires
// byte-identical results: return value, modeled cycle clock, physical
// memory checksum, and the full metrics snapshot minus pause attribution
// and engine bookkeeping.
func TestIncrementalParityMatrix(t *testing.T) {
	for seed := int64(100); seed <= 112; seed++ {
		ref := runSeedDigest(t, seed, 0, reference)
		for _, budget := range []uint64{0, minBudget, 1000} {
			for _, engine := range []bool{reference, compiled} {
				if budget == 0 && engine == reference {
					continue // the reference leg itself
				}
				leg := fmt.Sprintf("budget=%d compiled=%v", budget, engine)
				got := runSeedDigest(t, seed, budget, engine)
				if ref.ret != got.ret {
					t.Errorf("seed %d: ret %d (reference) != %d (%s)", seed, ref.ret, got.ret, leg)
				}
				if ref.cycles != got.cycles {
					t.Errorf("seed %d: cycles %d (reference) != %d (%s)", seed, ref.cycles, got.cycles, leg)
				}
				if ref.memSum != got.memSum {
					t.Errorf("seed %d: memory checksum %#x (reference) != %#x (%s)", seed, ref.memSum, got.memSum, leg)
				}
				if ref.metrics != got.metrics {
					t.Errorf("seed %d: metrics diverge beyond pause attribution (%s):\n reference %s\n got       %s",
						seed, leg, ref.metrics, got.metrics)
				}
			}
		}
	}
}

// TestIncrementalPauseBoundUnderMoves: under a pause budget no recorded
// move pause may exceed it — while the budget-0 run of the same seed must
// blow through it (otherwise the fixture is too small to mean anything).
func TestIncrementalPauseBoundUnderMoves(t *testing.T) {
	const seed = 103 // heap-using seed with worst-case moves
	moveHist := runtime.PauseHist + ".move"

	for _, budget := range []uint64{0, minBudget} {
		m := genProgram(seed)
		pl := passes.Build(passes.LevelTracking)
		if err := pl.Run(m); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MemBytes = 1 << 23
		cfg.HeapBytes = 1 << 19
		cfg.PauseBudget = budget
		v, err := Load(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		v.SetMovePolicy(750, func() error { return v.InjectWorstCaseMove() })
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
		hist := v.Obs().Histogram(moveHist).Snapshot()
		if hist.Count == 0 {
			t.Fatalf("budget %d: no move pauses recorded; fixture moved nothing", budget)
		}
		if budget > 0 && hist.Max > budget {
			t.Errorf("move pause max %d exceeds the budget %d", hist.Max, budget)
		}
		if budget == 0 && hist.Max <= minBudget {
			t.Errorf("unbounded move pause max %d within the minimum budget %d — fixture too small", hist.Max, minBudget)
		}
	}
}

// TestSchedulerWorldConformance drives the VM's real scheduler through the
// shared World conformance suite, mid-run, with live threads parked
// at a safepoint — the exact state HandleMove sees.
func TestSchedulerWorldConformance(t *testing.T) {
	m := genProgram(1)
	pl := passes.Build(passes.LevelTracking)
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 23
	cfg.HeapBytes = 1 << 19
	v, err := Load(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	v.SetMovePolicy(500, func() error {
		if !ran {
			ran = true
			worldtest.Conformance(t, "vm.scheduler", v.sched)
		}
		return nil
	})
	if _, err := v.Run(); err != nil {
		t.Fatalf("run with mid-flight conformance: %v", err)
	}
	if !ran {
		t.Fatal("conformance suite never ran; program too short for the move policy period")
	}
}

// TestForwardingWindowOnAccessPath drives the epoch-barrier read path in
// translate directly: with a window open, CARAT-mode accesses to patched
// (destination-naming) addresses are forwarded back to the source before
// the copy, and stale source addresses forward to the destination after the
// flip. The VM never hits this live (its guest never runs mid-move), so the unit
// test is the coverage — of translate; that a compiled unguarded access,
// which goes to memory without calling it, stands aside for an open window
// is TestUnguardedAccessColdPaths/forwarding-window.
func TestForwardingWindowOnAccessPath(t *testing.T) {
	m := genProgram(2)
	pl := passes.Build(passes.LevelTracking)
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 23
	cfg.HeapBytes = 1 << 19
	v, err := Load(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := v.Process().Regions
	src, err := v.Process().GrantRegion(4096, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := v.Process().GrantRegion(4096, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	v.Kernel().Mem.Store64(src, 0xFEED)

	if pa, err := v.translate(dst, 8, guard.PermRead); err != nil || pa != dst {
		t.Fatalf("identity translate with no window: %#x, %v", pa, err)
	}
	if err := rs.OpenForward(src, dst, 4096); err != nil {
		t.Fatal(err)
	}
	// Before the copy: patched pointers name dst, data lives at src.
	pa, err := v.translate(dst+16, 8, guard.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if pa != src+16 {
		t.Errorf("pre-flip access to dst+16 translated to %#x, want src+16 %#x", pa, src+16)
	}
	rs.FlipForward()
	// After the copy: stale pointers name src, data lives at dst.
	pa, err = v.translate(src+24, 8, guard.PermRead)
	if err != nil {
		t.Fatal(err)
	}
	if pa != dst+24 {
		t.Errorf("post-flip access to src+24 translated to %#x, want dst+24 %#x", pa, dst+24)
	}
	rs.CloseForward()
	if pa, err := v.translate(src, 8, guard.PermRead); err != nil || pa != src {
		t.Fatalf("identity translate after close: %#x, %v", pa, err)
	}
}
