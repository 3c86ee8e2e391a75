package vm

import (
	"testing"

	"carat/internal/fault"
	"carat/internal/guard"
	"carat/internal/passes"
)

// runSeedFaulted runs a seed's program with a fault injector threaded
// through the VM and a move policy that keeps requesting worst-case moves,
// swallowing injected aborts the way mmpolicy's daemon does. Returns the
// program result and how many moves were rolled back.
func runSeedFaulted(t *testing.T, seed int64, rate float64, engine bool) (int64, uint64) {
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
	cfg.Closure = engine
	inj := fault.New(seed, nil)
	inj.SetRate(fault.MoveAbort, rate)
	inj.SetRate(fault.PatchFail, rate)
	cfg.Fault = inj
	v, err := Load(m, cfg)
	if err != nil {
		t.Fatalf("seed %d: load: %v", seed, err)
	}
	v.SetMovePolicy(500, func() error {
		err := v.InjectWorstCaseMove()
		if fault.Injected(err) {
			return nil // rolled back; the program must not notice
		}
		return err
	})
	ret, err := v.Run()
	if err != nil {
		t.Fatalf("seed %d: run: %v", seed, err)
	}
	return ret, v.Obs().Counter("carat.runtime.move_rollbacks").Get()
}

// TestDifferentialUnderAbortedMoves is the differential-fuzz invariant
// extended to the fault path: with the translation cache enabled and a
// high injected abort/patch-failure rate, every rolled-back move must be
// invisible to the program — same output as the clean run. This is the
// end-to-end check that rollback restores memory, escapes, and registers
// AND that the xcache drops translations minted for the aborted
// destination.
func TestDifferentialUnderAbortedMoves(t *testing.T) {
	var sawRollback bool
	for seed := int64(100); seed <= 115; seed++ {
		want := runSeed(t, seed, passes.LevelTracking, guard.MechRange, nil)
		got, rollbacks := runSeedFaulted(t, seed, 0.5, compiled)
		if got != want {
			t.Errorf("seed %d with aborted moves: got %d, want %d", seed, got, want)
		}
		gotRef, rollRef := runSeedFaulted(t, seed, 0.5, reference)
		if gotRef != want {
			t.Errorf("seed %d with aborted moves (reference): got %d, want %d", seed, gotRef, want)
		}
		if rollbacks != rollRef {
			t.Errorf("seed %d: %d rollbacks compiled, %d reference: the engines drew different faults",
				seed, rollbacks, rollRef)
		}
		if rollbacks > 0 {
			sawRollback = true
		}
	}
	if !sawRollback {
		t.Error("no seed exercised a rollback — injection not reaching the move path")
	}
}
