package mmpolicy

import (
	"strings"
	"sync"
	"testing"

	"carat/internal/guard"
	"carat/internal/kernel"
	"carat/internal/obs"
	"carat/internal/runtime"
)

// TestRareMigrationMatchesModulo pins the refactor that moved the paging
// model's migration pacing here: for a counter advancing by 1, RareMigration
// fires exactly where the old `count % period == 0` injector did.
func TestRareMigrationMatchesModulo(t *testing.T) {
	const period = 25
	r := NewRareMigration(period)
	var got []uint64
	for now := uint64(1); now <= 100; now++ {
		if r.Due(now) {
			got = append(got, now)
		}
	}
	want := []uint64{25, 50, 75, 100}
	if len(got) != len(want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired at %v, want %v", got, want)
		}
	}
}

func TestRareMigrationZeroPeriodNeverFires(t *testing.T) {
	r := NewRareMigration(0)
	for now := uint64(0); now < 1000; now += 100 {
		if r.Due(now) {
			t.Fatalf("zero-period migrator fired at %d", now)
		}
	}
}

// TestRareMigrationLargeJump: a counter that leaps over several periods
// fires once, then re-arms relative to the observed position (deficit
// semantics), matching the VM safepoint injector's behavior.
func TestRareMigrationLargeJump(t *testing.T) {
	r := NewRareMigration(100)
	if !r.Due(550) {
		t.Fatal("expected fire on first crossing")
	}
	if r.Due(600) {
		t.Fatal("re-armed too early")
	}
	if !r.Due(650) {
		t.Fatal("expected fire one period after last")
	}
}

// testProc hand-builds one managed process: kernel process + runtime wired
// as its move handler.
func testProc(t *testing.T, d *Daemon, k *kernel.Kernel, name string) (*ManagedProc, *kernel.Process, *runtime.Runtime) {
	t.Helper()
	p := k.NewProcess()
	rt := runtime.New(k.Mem, nil, k.Obs)
	p.Handler = rt
	return d.Attach(name, p, rt), p, rt
}

// grantAlloc grants and tracks a heap allocation of n pages.
func grantAlloc(t *testing.T, p *kernel.Process, rt *runtime.Runtime, pages uint64) uint64 {
	t.Helper()
	base, err := p.GrantRegion(pages*kernel.PageSize, guard.PermRW)
	if err != nil {
		t.Fatalf("grant: %v", err)
	}
	if err := rt.TrackAlloc(base, pages*kernel.PageSize); err != nil {
		t.Fatalf("track: %v", err)
	}
	return base
}

func freeAlloc(t *testing.T, p *kernel.Process, rt *runtime.Runtime, base, pages uint64) {
	t.Helper()
	if err := rt.TrackFree(base); err != nil {
		t.Fatalf("free: %v", err)
	}
	if err := p.ReleaseRegion(base, pages*kernel.PageSize); err != nil {
		t.Fatalf("release: %v", err)
	}
}

// TestDefragAssemblesTargetRun fragments a small arena checkerboard-style
// and checks the daemon compacts it back to a target contiguous run.
func TestDefragAssemblesTargetRun(t *testing.T) {
	const targetRun = 32
	k := kernel.New(256 * kernel.PageSize)
	d := New(k, NewDefrag(targetRun))
	_, p, rt := testProc(t, d, k, "frag")

	// Fill the arena with single pages, then free every other one:
	// checkerboard of one-page holes, largest free run well under target.
	var bases []uint64
	for {
		base, err := p.GrantRegion(kernel.PageSize, guard.PermRW)
		if err != nil {
			break // arena full
		}
		if err := rt.TrackAlloc(base, kernel.PageSize); err != nil {
			t.Fatal(err)
		}
		bases = append(bases, base)
	}
	for i := 0; i < len(bases); i += 2 {
		freeAlloc(t, p, rt, bases[i], 1)
	}
	before := k.Alloc.FragStats()
	if before.LargestRun >= targetRun {
		t.Fatalf("setup failed to fragment: largest run %d", before.LargestRun)
	}

	var now uint64
	for tick := 0; tick < 50; tick++ {
		consumed, err := d.Tick(now)
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		now += consumed + 10_000
		if k.Alloc.FragStats().LargestRun >= targetRun {
			break
		}
	}
	after := k.Alloc.FragStats()
	if after.LargestRun < targetRun {
		t.Fatalf("defrag stalled: largest run %d, want >= %d (before %d)",
			after.LargestRun, targetRun, before.LargestRun)
	}
	if err := rt.Table.CheckInvariants(); err != nil {
		t.Fatalf("table invariants after compaction: %v", err)
	}

	doc := d.Report()
	if doc.Schema != Schema || doc.Version != SchemaVersion {
		t.Fatalf("bad document header: %q v%d", doc.Schema, doc.Version)
	}
	if doc.Totals.Moves == 0 {
		t.Fatal("no moves recorded for a compaction run")
	}
	if doc.FragBefore == nil || doc.FragAfter == nil {
		t.Fatal("document missing frag bracket")
	}
	if doc.FragAfter.LargestRun < doc.FragBefore.LargestRun {
		t.Fatalf("report says fragmentation worsened: %d -> %d",
			doc.FragBefore.LargestRun, doc.FragAfter.LargestRun)
	}
	for _, dec := range doc.Decisions {
		if dec.Action == ActionMove && dec.Cycles == 0 {
			t.Fatalf("move decision with zero modeled cost: %+v", dec)
		}
	}
	if got := d.stats.DefragMove.Get(); got != doc.Totals.Moves {
		t.Fatalf("metric/document mismatch: %d defrag_moves vs %d moves", got, doc.Totals.Moves)
	}
}

// TestTieringSwapRoundTrip drives the full cold path: pressure pushes the
// coldest allocation out to swap; a later access faults on the poison
// pointer and FaultIn restores it, data intact, escape re-patched.
func TestTieringSwapRoundTrip(t *testing.T) {
	k := kernel.New(64 * kernel.PageSize)
	d := New(k, NewTiering())
	mp, p, rt := testProc(t, d, k, "cold")

	// Root slot page (static) holding the pointer to the cold allocation.
	root, err := p.GrantRegion(kernel.PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.TrackStatic(root, kernel.PageSize); err != nil {
		t.Fatal(err)
	}
	cold := grantAlloc(t, p, rt, 1)
	const stamp = 0xDEAD_BEEF_CAFE_F00D
	k.Mem.Store64(cold, stamp)
	k.Mem.Store64(root, cold)
	rt.TrackEscape(root, cold)

	// A big hot filler (too large to swap) drops free pages below the low
	// watermark, leaving the untouched cold allocation as the only victim.
	grantAlloc(t, p, rt, 50)

	if _, err := d.Tick(0); err != nil {
		t.Fatal(err)
	}
	ptr := k.Mem.Load64(root)
	if !kernel.IsPoison(ptr) {
		t.Fatalf("cold allocation not evicted: slot holds %#x", ptr)
	}
	if got := d.stats.SwapOuts.Get(); got != 1 {
		t.Fatalf("swap_outs = %d, want 1", got)
	}

	newBase, cost, err := d.FaultIn(mp, ptr, 5000)
	if err != nil {
		t.Fatalf("fault-in: %v", err)
	}
	if cost == 0 {
		t.Fatal("fault-in reported zero cost")
	}
	if got := k.Mem.Load64(root); got != newBase {
		t.Fatalf("escape not re-patched: slot %#x, new base %#x", got, newBase)
	}
	if got := k.Mem.Load64(newBase); got != uint64(stamp) {
		t.Fatalf("data lost across swap: %#x, want %#x", got, uint64(stamp))
	}
	doc := d.Report()
	if doc.Totals.SwapOuts != 1 || doc.Totals.SwapIns != 1 {
		t.Fatalf("totals = %+v, want one swap-out and one swap-in", doc.Totals)
	}
}

// TestNUMARebalanceMovesToHomeNode: a process whose first touch lands on
// node 0 gets its off-node region migrated back.
func TestNUMARebalanceMovesToHomeNode(t *testing.T) {
	k := kernel.New(128 * kernel.PageSize) // node 0: pages [0,64), node 1: [64,128)
	d := New(k, NewNUMARebalance())
	mp, p, rt := testProc(t, d, k, "numa")

	low := grantAlloc(t, p, rt, 2)
	d.RecordAccess(mp, low) // first touch on node 0 fixes home
	if mp.Home() != 0 {
		t.Fatalf("home = %d, want 0", mp.Home())
	}

	// Land an allocation on node 1 by filling the rest of node 0 first,
	// granting the target, then releasing the filler.
	fillerPages := k.Alloc.FreePages() - (k.Alloc.TotalPages() - 64)
	filler := grantAlloc(t, p, rt, fillerPages)
	remote := grantAlloc(t, p, rt, 2)
	if d.node(remote) != 1 {
		t.Fatalf("setup: remote allocation landed on node %d", d.node(remote))
	}
	freeAlloc(t, p, rt, filler, fillerPages)

	if _, err := d.Tick(0); err != nil {
		t.Fatal(err)
	}
	// The remote allocation must now live on node 0. Find it via the table
	// (the move rebased it).
	onHome := 0
	rt.Table.ForEach(func(a *runtime.Allocation) bool {
		if d.node(a.Base) == 0 {
			onHome++
		}
		return true
	})
	if onHome != 2 {
		t.Fatalf("%d of 2 allocations on home node after rebalance", onHome)
	}
	if got := d.stats.NUMAMoves.Get(); got == 0 {
		t.Fatal("no NUMA migrations recorded")
	}
	doc := d.Report()
	found := false
	for _, dec := range doc.Decisions {
		if dec.Policy == "numa" && dec.Action == ActionMove &&
			strings.HasPrefix(dec.Reason, "numa rebalance") {
			found = true
		}
	}
	if !found {
		t.Fatal("no numa move decision in the document")
	}
}

// TestHarnessIntegrityUnderAllPolicies is the end-to-end pressure run:
// three workload kinds, all three policies, auto-ticking daemon — and
// afterwards every process still finds every stamp.
func TestHarnessIntegrityUnderAllPolicies(t *testing.T) {
	h, err := NewHarness(HarnessConfig{
		MemBytes:  1 << 21, // 512 pages
		TickEvery: 50_000,
		Procs: []ProcSpec{
			{Name: "churn-a", Kind: Churn, Slots: 48, MaxPages: 4, Seed: 1},
			{Name: "churn-b", Kind: Churn, Slots: 48, MaxPages: 4, Seed: 2},
			{Name: "stream", Kind: Stream, Slots: 12, MaxPages: 2, Seed: 3},
			{Name: "cold", Kind: ColdStore, Slots: 12, MaxPages: 2, Seed: 4},
		},
		Policies: []Policy{NewDefrag(64), NewTiering(), NewNUMARebalance()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Run(1200); err != nil {
		t.Fatal(err)
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	doc := h.D.Report()
	if doc.Ticks == 0 {
		t.Fatal("daemon never ticked")
	}
	if len(doc.Decisions) == 0 {
		t.Fatal("daemon made no decisions under pressure")
	}
	if doc.Totals.DaemonCycles == 0 {
		t.Fatal("daemon cycles unaccounted")
	}
	// The clock must have advanced past the work the daemon charged.
	if h.Cycles < doc.Totals.DaemonCycles {
		t.Fatalf("clock %d behind daemon cost %d", h.Cycles, doc.Totals.DaemonCycles)
	}
}

// TestHarnessPauseAttributionAndPolicyProfile: the same pressure run, with
// the telemetry plumbing attached. World-stop pause cycles must surface in
// the policy document with percentiles, and the daemon's "policy" phase
// must show up in the attached sampler.
func TestHarnessPauseAttributionAndPolicyProfile(t *testing.T) {
	s := obs.NewSampler(2048)
	h, err := NewHarness(HarnessConfig{
		MemBytes:  1 << 21,
		TickEvery: 50_000,
		Procs: []ProcSpec{
			{Name: "churn-a", Kind: Churn, Slots: 48, MaxPages: 4, Seed: 1},
			{Name: "churn-b", Kind: Churn, Slots: 48, MaxPages: 4, Seed: 2},
			{Name: "cold", Kind: ColdStore, Slots: 12, MaxPages: 2, Seed: 4},
		},
		Policies: []Policy{NewDefrag(64), NewTiering()},
		Sampler:  s,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Run(1200); err != nil {
		t.Fatal(err)
	}
	doc := h.D.Report()
	if doc.PauseCycles == nil {
		t.Fatal("policy document has no pause_cycles histogram after moves/swaps")
	}
	p := doc.PauseCycles
	if p.Count == 0 || p.P99 == 0 || p.Max == 0 {
		t.Fatalf("pause histogram empty: %+v", p)
	}
	if p.P50 > p.P95 || p.P95 > p.P99 || p.P99 > float64(p.Max) {
		t.Fatalf("pause percentiles not ordered: p50 %.0f p95 %.0f p99 %.0f max %d",
			p.P50, p.P95, p.P99, p.Max)
	}
	// World stops are observe-only: the whole machine shares one registry,
	// and every per-cause histogram must sum into the aggregate.
	var perCause uint64
	for _, cause := range runtime.PauseCauses {
		perCause += h.K.Obs.Histogram(runtime.PauseHist + "." + cause).Count()
	}
	if perCause != p.Count {
		t.Errorf("per-cause pause counts sum to %d, aggregate has %d", perCause, p.Count)
	}
	if ps := s.PhaseSamples(); ps["policy"] == 0 {
		t.Errorf("daemon produced no policy-phase samples: %v", ps)
	}
}

// TestHarnessDeterminism: same config, same decisions — the experiments
// depend on reproducible runs.
func TestHarnessDeterminism(t *testing.T) {
	run := func() (uint64, int, Totals) {
		h, err := NewHarness(HarnessConfig{
			MemBytes:  1 << 21,
			TickEvery: 50_000,
			Procs: []ProcSpec{
				{Name: "churn", Kind: Churn, Slots: 48, MaxPages: 4, Seed: 7},
				{Name: "cold", Kind: ColdStore, Slots: 12, MaxPages: 2, Seed: 8},
			},
			Policies: []Policy{NewDefrag(64), NewTiering()},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Run(600); err != nil {
			t.Fatal(err)
		}
		doc := h.D.Report()
		return h.Cycles, len(doc.Decisions), doc.Totals
	}
	c1, n1, t1 := run()
	c2, n2, t2 := run()
	if c1 != c2 || n1 != n2 || t1 != t2 {
		t.Fatalf("nondeterministic run: (%d,%d,%+v) vs (%d,%d,%+v)", c1, n1, t1, c2, n2, t2)
	}
}

// TestConcurrentAccessors exercises the daemon's lock discipline under
// the race detector: ticks, access recording, and report reads in
// parallel.
func TestConcurrentAccessors(t *testing.T) {
	k := kernel.New(256 * kernel.PageSize)
	d := New(k, NewDefrag(16), NewTiering())
	mp, p, rt := testProc(t, d, k, "racer")
	base := grantAlloc(t, p, rt, 1)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d.RecordAccess(mp, base)
				_ = mp.Heat(base)
				_ = mp.Home()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := d.Tick(uint64(i) * 1000); err != nil {
				t.Error(err)
				return
			}
			_ = d.Report()
			_ = d.Procs()
		}
	}()
	wg.Wait()
	if got := d.stats.Accesses.Get(); got != 800 {
		t.Fatalf("accesses = %d, want 800", got)
	}
}
