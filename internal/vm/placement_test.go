package vm

import (
	"fmt"
	"testing"

	"carat/internal/ir"
	"carat/internal/kernel"
	"carat/internal/obs"
	"carat/internal/passes"
	"carat/internal/workload"
)

// placementLayouts are four ways to find a machine's page allocator before a
// process loads into it. Each changes where the next-fit scan puts the
// process's grants and move destinations, and so, without a capsule, the
// order of its regions.
var placementLayouts = []struct {
	name string
	prep func(k *kernel.Kernel) error
}{
	{"fresh", func(*kernel.Kernel) error { return nil }},
	{"low-777-held", func(k *kernel.Kernel) error {
		_, err := k.Alloc.Alloc(777)
		return err
	}},
	{"scan-9-short", func(k *kernel.Kernel) error {
		// Allocate all but the last 9 pages, then free them: the next-fit
		// scan resumes 9 pages short of the end, so a grant of more than 9
		// pages wraps to the bottom and a smaller one does not.
		n := k.Alloc.FreePages() - 9
		base, err := k.Alloc.Alloc(n)
		if err != nil {
			return err
		}
		return k.Alloc.Free(base, n)
	}},
	{"swiss-cheese", func(k *kernel.Kernel) error {
		// 600 runs of 1 to 7 pages, every other one freed again.
		for i := 0; i < 600; i++ {
			n := uint64(1 + i%7)
			base, err := k.Alloc.Alloc(n)
			if err != nil {
				return err
			}
			if i%2 == 0 {
				if err := k.Alloc.Free(base, n); err != nil {
					return err
				}
			}
		}
		return nil
	}},
}

// placementRun is what a run bills and counts.
type placementRun struct {
	cycles, instrs, guardChecks uint64
}

// runPlaced loads m into a fresh 16 MB machine prepared by prep, with a 4 MB
// heap as caratd gives a request, optionally as a capsule and optionally
// under worst-case self-moves every movePeriod instructions, and returns what
// the run billed.
func runPlaced(t *testing.T, prep func(*kernel.Kernel) error, m *ir.Module, capsule bool, movePeriod uint64) placementRun {
	t.Helper()
	k := kernel.NewWith(1<<24, obs.NewRegistry())
	if err := prep(k); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Kernel = k
	cfg.Capsule = capsule
	cfg.HeapBytes = 1 << 22
	cfg.StackBytes = 1 << 18
	v, err := Load(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release() //nolint:errcheck // the machine is dropped
	if movePeriod != 0 {
		v.SetMovePolicy(movePeriod, v.InjectWorstCaseMove)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	return placementRun{v.Cycles, v.Instrs, v.GuardChecks}
}

// TestCapsuleCyclesIndependentOfPlacement pins why caratd needs no private
// page range per tenant: a capsule process's billed cycles do not depend on
// where the allocator put it. The cycle term that reads placement is the
// multi-region guard's binary search, whose path and mispredictions follow
// the order of the process's regions, not their addresses. A capsule that is
// never moved, as a caratd tenant, is one region, so it has no order to
// change; the generated programs under worst-case self-moves split their
// capsules and still bill the same on these layouts. The control: with the
// capsule off, the same layouts must move some input's cycles, which proves
// they differ.
func TestCapsuleCyclesIndependentOfPlacement(t *testing.T) {
	type input struct {
		name       string
		m          *ir.Module
		movePeriod uint64
	}
	var inputs []input
	for _, lvl := range []struct {
		name  string
		level passes.Level
	}{{"guards-opt", passes.LevelGuardsOpt}, {"carat", passes.LevelTracking}} {
		for _, w := range workload.All() {
			m := w.Build(workload.ScaleTest)
			if err := passes.Build(lvl.level).Run(m); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			inputs = append(inputs, input{w.Name + "/" + lvl.name, m, 0})
		}
	}
	for i, seed := range []int64{7, 19, 40, 57} {
		m := genProgram(seed)
		if err := passes.Build(passes.LevelTracking).Run(m); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		inputs = append(inputs, input{fmt.Sprintf("gen%d/moves", seed), m, 700 + uint64(i)*130})
	}

	moved := 0
	for _, capsule := range []bool{true, false} {
		for _, in := range inputs {
			base := runPlaced(t, placementLayouts[0].prep, in.m, capsule, in.movePeriod)
			differs := false
			for _, l := range placementLayouts[1:] {
				got := runPlaced(t, l.prep, in.m, capsule, in.movePeriod)
				if got.instrs != base.instrs || got.guardChecks != base.guardChecks {
					t.Errorf("capsule=%v %s on %s: instrs %d, guard checks %d; fresh machine %d, %d",
						capsule, in.name, l.name, got.instrs, got.guardChecks, base.instrs, base.guardChecks)
				}
				if got.cycles == base.cycles {
					continue
				}
				differs = true
				if capsule {
					t.Errorf("capsule %s on %s: %d cycles, %d on a fresh machine", in.name, l.name, got.cycles, base.cycles)
				}
			}
			if !capsule && differs {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Error("with the capsule off no input's cycles moved: the layouts do not differ")
	}
	t.Logf("capsule off: %d of %d inputs moved cycles", moved, len(inputs))
}
