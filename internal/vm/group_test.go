package vm

import (
	hostrt "runtime"
	"testing"

	"carat/internal/fault"
	"carat/internal/kernel"
	"carat/internal/obs"
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
// period) so the ragged safepoint machinery is exercised, not idle. With
// aborts, process i's moves go through its own fault.New(1000+i) injector,
// which aborts half of them and fails half of their patches; a rolled-back
// move is one the program must not notice.
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

// TestGroupRaggedIsolation asserts the scalability half of the protocol:
// suspending process A (and moving its pages from outside) never blocks
// process B's block-head fast path. B runs start-to-finish while A is
// parked.
func TestGroupRaggedIsolation(t *testing.T) {
	k := kernel.NewWith(1<<25, obs.NewRegistry())

	load := func(seed int64) *VM {
		m := genProgram(seed)
		pl := passes.Build(passes.LevelTracking)
		if err := pl.Run(m); err != nil {
			t.Fatalf("seed %d: passes: %v", seed, err)
		}
		cfg := groupCfg()
		cfg.Kernel = k
		cfg.Obs = obs.NewRegistry()
		cfg.ArenaPages = groupArenaPages
		v, err := Load(m, cfg)
		if err != nil {
			t.Fatalf("seed %d: load: %v", seed, err)
		}
		return v
	}
	vmA, vmB := load(33), load(65)
	soloRet, ok := fuzzRunEngine(t, 33, passes.LevelTracking, true, nil)
	if !ok {
		t.Fatal("solo baseline run failed")
	}

	// Start A and wait (via its move policy) until a guest thread is
	// provably mid-run at a safepoint; then the external suspension below
	// parks a live process, not an un-started one.
	started := make(chan struct{})
	signaled := false
	vmA.SetMovePolicy(500, func() error {
		if !signaled {
			signaled = true
			close(started)
		}
		return nil
	})
	aDone := make(chan struct{})
	var aRet int64
	var aErr error
	go func() {
		aRet, aErr = vmA.Run()
		close(aDone)
	}()
	<-started

	worldtest.RaggedIsolation(t, "vm.group", vmA, func() error {
		// While A is parked: move one of A's pages from this goroutine —
		// the external-mover path (suspend, mutate, resume) — and then run
		// all of B. Neither may wait on A.
		if err := vmA.InjectWorstCaseMove(); err != nil {
			return err
		}
		if _, err := vmB.Run(); err != nil {
			return err
		}
		return nil
	})

	<-aDone
	if aErr != nil {
		t.Fatalf("process A after external move: %v", aErr)
	}
	if aRet != soloRet {
		t.Errorf("process A ret %d after suspension+external move, want %d", aRet, soloRet)
	}
	if err := vmA.Release(); err != nil {
		t.Fatal(err)
	}
	if err := vmB.Release(); err != nil {
		t.Fatal(err)
	}
	if n := k.OwnedPageCount(); n != 0 {
		t.Errorf("%d pages still owned after release", n)
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

// TestSchedulerSuspendConformance drives the real scheduler through the
// shared suspension contract, plus StopOwners' ragged stop-set
// construction on a live group.
func TestSchedulerSuspendConformance(t *testing.T) {
	g := buildGroup(t, []int64{7, 19}, false)
	vmA, vmB := g.procs[0].vm, g.procs[1].vm
	worldtest.SuspendConformance(t, "vm.scheduler", vmA)

	// StopOwners over A's arena must suspend A only: B's scheduler never
	// sees a stop request.
	a := vmA.Arena()
	resume := g.StopOwners(a.Base(), a.Bytes())
	if !(vmA.gate.pending.Load()&pendingStop != 0) {
		t.Error("StopOwners over A's arena did not set A's stop request")
	}
	if vmB.gate.pending.Load()&pendingStop != 0 {
		t.Error("StopOwners over A's arena set B's stop request (ragged stop leaked)")
	}
	resume()
	if vmA.gate.pending.Load()&pendingStop != 0 {
		t.Error("resume did not clear A's stop request")
	}
	res := g.Run()
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("process %s: %v", r.Name, r.Err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
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
