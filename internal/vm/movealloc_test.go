package vm

import (
	goruntime "runtime"
	"testing"

	"carat/internal/passes"
	"carat/internal/workload"
)

// TestInjectedMoveAllocatesNothing: past a run's first moves, a page move
// injected into a running guest allocates nothing it does not keep — the
// runtime's move state, the VM's stop set and register buffers, and its move
// listener included. The page is chosen first, outside the count, because
// choosing it flushes the guest's batched escapes into their sets. What may
// remain is slices growing: MoveStats keeps one breakdown per move.
func TestInjectedMoveAllocatesNothing(t *testing.T) {
	var lu *workload.Workload
	for _, w := range workload.All() {
		if w.Name == "LU" {
			lu = w
		}
	}
	m := lu.Build(workload.ScaleTest)
	if err := passes.Build(passes.LevelTracking).Run(m); err != nil {
		t.Fatal(err)
	}
	v, err := Load(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var moves, allocs uint64
	var ms goruntime.MemStats
	v.SetMovePolicy(2_000, func() error {
		page, ok := v.Runtime().WorstCasePage()
		if !ok {
			return nil
		}
		goruntime.ReadMemStats(&ms)
		before := ms.Mallocs
		_, err := v.Process().RequestMove(page, 1)
		goruntime.ReadMemStats(&ms)
		if moves++; moves > 4 {
			allocs += ms.Mallocs - before
		}
		return err
	})
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if moves < 50 {
		t.Fatalf("only %d moves", moves)
	}
	t.Logf("%d objects over %d moves after the first four", allocs, moves-4)
	if perMove := float64(allocs) / float64(moves-4); perMove > 0.5 {
		t.Errorf("%d objects over %d moves after the first four (%.2f a move), want slice growth alone", allocs, moves-4, perMove)
	}
}
