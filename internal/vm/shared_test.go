package vm

import (
	"reflect"
	hostrt "runtime"
	"sync"
	"testing"

	"carat/internal/fault"
	"carat/internal/kernel"
	"carat/internal/obs"
	"carat/internal/passes"
	"carat/internal/worldtest"
)

// sharedResult is one process's architectural outcome on a shared machine.
// Cycles are not part of it: without a private page range per process, a
// move's destination comes from the one machine allocator, so its address —
// and the region order the multi-region guard search reads — depends on how
// the processes' grants interleave.
type sharedResult struct {
	ret         int64
	instrs      uint64
	guardChecks uint64
	output      []int64
}

// runSharedMachine loads one fuzz-generated process per seed, one after
// another, on one fresh machine, each with a self-move policy
// (kernel-initiated worst-case moves at a per-process period), then runs
// each on a goroutine of its own at the given GOMAXPROCS, so each process's
// world stops while the others run. With aborts, process i's moves go
// through its own fault.New(1000+i) injector, which aborts half of them and
// fails half of their patches; a rolled-back move is one the program must not
// notice. It releases every process, checks that the machine got every page
// back, and returns the per-process results and the machine's move
// rollbacks.
func runSharedMachine(t testing.TB, gomaxprocs int, seeds []int64, aborts bool) ([]sharedResult, uint64) {
	t.Helper()
	prev := hostrt.GOMAXPROCS(gomaxprocs)
	defer hostrt.GOMAXPROCS(prev)
	k := kernel.NewWith(1<<25, obs.NewRegistry())
	free0 := k.Alloc.FreePages()
	vms := make([]*VM, len(seeds))
	for i, seed := range seeds {
		m := genProgram(seed)
		if err := passes.Build(passes.LevelTracking).Run(m); err != nil {
			t.Fatalf("seed %d: passes: %v", seed, err)
		}
		cfg := DefaultConfig()
		cfg.Kernel = k
		cfg.HeapBytes = 1 << 19
		cfg.StackBytes = 1 << 18
		if aborts {
			cfg.Fault = fault.New(int64(1000+i), nil)
			cfg.Fault.SetRate(fault.MoveAbort, 0.5)
			cfg.Fault.SetRate(fault.PatchFail, 0.5)
		}
		v, err := Load(m, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Distinct periods per process: the move pattern is a function of
		// the process's own instruction count only, never wall-clock.
		v.SetMovePolicy(700+uint64(i)*130, func() error {
			if err := v.InjectWorstCaseMove(); !fault.Injected(err) {
				return err
			}
			return nil
		})
		vms[i] = v
	}
	res := make([]sharedResult, len(vms))
	errs := make([]error, len(vms))
	var wg sync.WaitGroup
	for i, v := range vms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ret, err := v.Run()
			res[i] = sharedResult{ret, v.Instrs, v.GuardChecks, append([]int64(nil), v.Output...)}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, v := range vms {
		if errs[i] != nil {
			t.Fatalf("GOMAXPROCS=%d: seed %d: %v", gomaxprocs, seeds[i], errs[i])
		}
		if err := v.Release(); err != nil {
			t.Fatalf("GOMAXPROCS=%d: seed %d: release: %v", gomaxprocs, seeds[i], err)
		}
	}
	if free := k.Alloc.FreePages(); free != free0 {
		t.Errorf("GOMAXPROCS=%d: %d pages free after release, want %d", gomaxprocs, free, free0)
	}
	if n := k.OwnedPageCount(); n != 0 {
		t.Errorf("GOMAXPROCS=%d: %d pages still owned after release", gomaxprocs, n)
	}
	return res, k.Obs.Counter("carat.runtime.move_rollbacks").Get()
}

// requireSameResults fails unless every process's return value, instruction
// and guard-check counts and output match the GOMAXPROCS=1 run.
func requireSameResults(t *testing.T, gomaxprocs int, seeds []int64, got, want []sharedResult) {
	t.Helper()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("GOMAXPROCS=%d: seed %d: got %+v, want %+v", gomaxprocs, seeds[i], got[i], want[i])
		}
	}
}

// TestSharedMachineAcrossGOMAXPROCS runs four processes concurrently on one
// machine, each moving its own pages at its own safepoints: what each guest
// computes and counts is identical whether the processes time-share one core
// or run on many — only the interleaving may change. The aborts case holds it
// under injected move aborts and patch failures, and fails if no move rolled
// back. Cycles and memory bytes are not compared: move destinations come from
// the shared allocator, so they, and the addresses the guests store, depend
// on the interleaving. The guest's own checksum covers its data (genProgram
// returns a fold of every array).
func TestSharedMachineAcrossGOMAXPROCS(t *testing.T) {
	seeds := []int64{7, 19, 40, 57}
	for _, tc := range []struct {
		name   string
		aborts bool
	}{{"plain", false}, {"aborts", true}} {
		t.Run(tc.name, func(t *testing.T) {
			base, rollbacks := runSharedMachine(t, 1, seeds, tc.aborts)
			if tc.aborts && rollbacks == 0 {
				t.Error("no move rolled back")
			}
			for _, gm := range []int{2, 8} {
				got, _ := runSharedMachine(t, gm, seeds, tc.aborts)
				requireSameResults(t, gm, seeds, got, base)
			}
		})
	}
}

// TestSchedulerWorldConformance drives the VM's real world through the shared
// World conformance suite, mid-run, from a move policy at a safepoint of the
// guest — the exact state HandleMove sees.
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
			worldtest.Conformance(t, "vm.world", v.world)
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

// FuzzSharedMachineMoves interleaves kernel-initiated moves in two
// concurrent processes on one machine and checks what each guest computes
// and counts across GOMAXPROCS. CI runs this target under -race: any
// unsynchronized cross-process access to the shared kernel structures is a
// failure even when the results happen to agree.
func FuzzSharedMachineMoves(f *testing.F) {
	f.Add(int64(7), int64(65))
	f.Add(int64(19), int64(40))
	f.Add(int64(100), int64(210))
	f.Fuzz(func(t *testing.T, seedA, seedB int64) {
		seeds := []int64{seedA, seedB}
		base, _ := runSharedMachine(t, 1, seeds, false)
		got, _ := runSharedMachine(t, 2, seeds, false)
		requireSameResults(t, 2, seeds, got, base)
	})
}
