package vm

import (
	hostrt "runtime"
	"testing"

	"carat/internal/fault"
	"carat/internal/passes"
	"carat/internal/worldtest"
)

// groupCfg is the shared configuration for multi-process group tests:
// small per-process footprints so several arenas fit one machine, on the
// compiled engine.
func groupCfg() Config {
	cfg := DefaultConfig()
	cfg.HeapBytes = 1 << 19
	cfg.StackBytes = 1 << 18
	return cfg
}

const groupArenaPages = 512 // 2 MB arena per process

// buildGroup assembles a group of n fuzz-generated processes, each with a
// self-move policy (kernel-initiated worst-case moves at a per-process
// period), so each process's world stops while the others run. With aborts,
// process i's moves go through its own fault.New(1000+i) injector, which
// aborts half of them and fails half of their patches; a rolled-back move is
// one the program must not notice.
func buildGroup(t testing.TB, seeds []int64, aborts bool) *Group {
	t.Helper()
	g := NewGroup(1 << 25)
	for i, seed := range seeds {
		m := genProgram(seed)
		pl := passes.Build(passes.LevelTracking)
		if err := pl.Run(m); err != nil {
			t.Fatalf("seed %d: passes: %v", seed, err)
		}
		cfg := groupCfg()
		if aborts {
			cfg.Fault = fault.New(int64(1000+i), nil)
			cfg.Fault.SetRate(fault.MoveAbort, 0.5)
			cfg.Fault.SetRate(fault.PatchFail, 0.5)
		}
		v, err := g.Add("p"+string(rune('0'+i)), m, cfg, groupArenaPages)
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
	}
	return g
}

// runGroupAt runs a fresh group at the given GOMAXPROCS and returns the
// per-process results and the machine's move rollbacks.
func runGroupAt(t testing.TB, gomaxprocs int, seeds []int64, aborts bool) ([]GroupResult, uint64) {
	t.Helper()
	prev := hostrt.GOMAXPROCS(gomaxprocs)
	defer hostrt.GOMAXPROCS(prev)
	g := buildGroup(t, seeds, aborts)
	res := g.Run()
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("GOMAXPROCS=%d: process %s: %v", gomaxprocs, r.Name, r.Err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", gomaxprocs, err)
	}
	return res, g.Kernel().Obs.Counter("carat.runtime.move_rollbacks").Get()
}

// TestGroupDeterminismAcrossGOMAXPROCS is the tentpole's determinism
// contract: per-process cycles, outputs, and arena digests are
// byte-identical whether the processes time-share one core or run truly
// concurrently on many — only the interleaving may change. The aborts case
// holds it under injected move aborts and patch failures, and fails if no
// move rolled back.
func TestGroupDeterminismAcrossGOMAXPROCS(t *testing.T) {
	seeds := []int64{7, 19, 40, 57}
	for _, tc := range []struct {
		name   string
		aborts bool
	}{{"plain", false}, {"aborts", true}} {
		t.Run(tc.name, func(t *testing.T) {
			base, rollbacks := runGroupAt(t, 1, seeds, tc.aborts)
			if tc.aborts && rollbacks == 0 {
				t.Error("no move rolled back")
			}
			for _, gm := range []int{2, 8} {
				got, _ := runGroupAt(t, gm, seeds, tc.aborts)
				for i := range base {
					if got[i].Digest != base[i].Digest {
						t.Errorf("GOMAXPROCS=%d: process %s digest %#x, want %#x (cycles %d vs %d)",
							gm, got[i].Name, got[i].Digest, base[i].Digest,
							got[i].Cycles, base[i].Cycles)
					}
					if got[i].Ret != base[i].Ret {
						t.Errorf("GOMAXPROCS=%d: process %s ret %d, want %d",
							gm, got[i].Name, got[i].Ret, base[i].Ret)
					}
				}
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

// FuzzGroupMoves interleaves kernel-initiated moves in two concurrent
// processes and checks per-process determinism across GOMAXPROCS. CI runs
// this target under -race: any unsynchronized cross-process access to the
// shared kernel structures is a failure even when digests happen to agree.
func FuzzGroupMoves(f *testing.F) {
	f.Add(int64(7), int64(65))
	f.Add(int64(19), int64(40))
	f.Add(int64(100), int64(210))
	f.Fuzz(func(t *testing.T, seedA, seedB int64) {
		seeds := []int64{seedA, seedB}
		base, _ := runGroupAt(t, 1, seeds, false)
		got, _ := runGroupAt(t, 2, seeds, false)
		for i := range base {
			if got[i].Digest != base[i].Digest {
				t.Errorf("seeds (%d,%d): process %s digest %#x at GOMAXPROCS=2, want %#x",
					seedA, seedB, got[i].Name, got[i].Digest, base[i].Digest)
			}
		}
	})
}
