package vm

import (
	"reflect"
	"testing"

	"carat/internal/guard"
	"carat/internal/kernel"
	"carat/internal/obs"
	"carat/internal/passes"
)

// Engine parity: the compiled engine — closure compilation and the
// guard/translation cache — is a host-speed optimization ONLY. Every modeled
// observable — result, output, instruction count, cycle count, per-category
// profile, guard evaluator stats, physical memory image — must be
// byte-identical between it and the reference interpreter, which shares
// neither, including under injected page moves, allocation moves, and swap
// storms.

// engineResult snapshots every modeled observable of one run.
type engineResult struct {
	ret        int64
	cycles     uint64
	instrs     uint64
	checks     uint64
	evalCycles uint64
	faults     uint64
	cat        [obs.NumCategories]uint64
	output     []int64
	memSum     uint64
}

func runEngine(t *testing.T, seed int64, lvl passes.Level, mech guard.Mechanism,
	engine bool, vmTweak func(*VM)) engineResult {
	t.Helper()
	m := genProgram(seed)
	pl := passes.Build(lvl)
	if err := pl.Run(m); err != nil {
		t.Fatalf("seed %d: passes: %v", seed, err)
	}
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 23
	cfg.HeapBytes = 1 << 19
	cfg.GuardMech = mech
	cfg.Closure = engine
	v, err := Load(m, cfg)
	if err != nil {
		t.Fatalf("seed %d: load: %v", seed, err)
	}
	if vmTweak != nil {
		vmTweak(v)
	}
	ret, err := v.Run()
	if err != nil {
		t.Fatalf("seed %d (compiled=%v): run: %v", seed, engine, err)
	}
	return engineResult{
		ret:        ret,
		cycles:     v.Cycles,
		instrs:     v.Instrs,
		checks:     v.GuardChecks,
		evalCycles: v.eval.Cycles,
		faults:     v.eval.Faults,
		cat:        v.Prof.Cat,
		output:     v.Output,
		memSum:     v.Kernel().Mem.Checksum(),
	}
}

// engineParity runs one seed on both engines and requires bit-identical
// results.
func engineParity(t *testing.T, seed int64, lvl passes.Level, mech guard.Mechanism, vmTweak func(*VM)) {
	t.Helper()
	want := runEngine(t, seed, lvl, mech, reference, vmTweak)
	got := runEngine(t, seed, lvl, mech, compiled, vmTweak)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("seed %d: the compiled engine diverges from the reference interpreter:\n got %+v\nwant %+v",
			seed, got, want)
	}
}

func TestEngineParityMatrix(t *testing.T) {
	for seed := int64(400); seed <= 420; seed++ {
		engineParity(t, seed, passes.LevelGuardsOpt, guard.MechRange, nil)
	}
}

func TestEngineParityAcrossMechanisms(t *testing.T) {
	mechs := []guard.Mechanism{guard.MechRange, guard.MechMPX, guard.MechIfTree,
		guard.MechBinarySearch, guard.MechLinear}
	for i, mech := range mechs {
		engineParity(t, int64(430+i), passes.LevelGuardsOnly, mech, nil)
	}
}

func TestEngineParityUnderPageMoves(t *testing.T) {
	for seed := int64(440); seed <= 450; seed++ {
		engineParity(t, seed, passes.LevelTracking, guard.MechRange, func(v *VM) {
			v.SetMovePolicy(750, func() error { return v.InjectWorstCaseMove() })
		})
	}
}

func TestEngineParityUnderAllocationMovesAndSwaps(t *testing.T) {
	for seed := int64(460); seed <= 468; seed++ {
		engineParity(t, seed, passes.LevelTracking, guard.MechRange, func(v *VM) {
			n := 0
			v.SetMovePolicy(900, func() error {
				n++
				if n%2 == 0 {
					_ = v.InjectWorstCaseAllocationMove()
					return nil
				}
				if base, _, ok := v.Runtime().WorstCaseHeapAllocation(v.heap.base, v.heap.end); ok {
					_, _ = v.SwapOutAllocation(base)
				}
				return nil
			})
		})
	}
}

func TestEngineParityTracksGuardStats(t *testing.T) {
	// Table-1-style evaluator statistics must be identical with and
	// without the cache — AvgCycles is derived from (Cycles, Checks),
	// both compared here explicitly on a guard-heavy program.
	a := runEngine(t, 470, passes.LevelGuardsOnly, guard.MechBinarySearch, reference, nil)
	b := runEngine(t, 470, passes.LevelGuardsOnly, guard.MechBinarySearch, compiled, nil)
	if a.checks != b.checks || a.evalCycles != b.evalCycles {
		t.Errorf("guard stats diverge: checks %d/%d cycles %d/%d",
			a.checks, b.checks, a.evalCycles, b.evalCycles)
	}
	if a.checks == 0 {
		t.Fatal("program executed no guards")
	}
}

func TestXCacheActuallyHits(t *testing.T) {
	m := compile(t, sumSrc, passes.LevelGuardsOnly)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 24
	cfg.HeapBytes = 1 << 20
	v, _ := run(t, m, cfg)
	hits, misses, _ := v.XCacheStats()
	if hits == 0 {
		t.Fatal("loop workload produced zero xcache hits")
	}
	if hits+misses != v.GuardChecks {
		t.Errorf("hits+misses = %d, want %d guard checks", hits+misses, v.GuardChecks)
	}
	if float64(hits)/float64(v.GuardChecks) < 0.5 {
		t.Errorf("hit rate %d/%d unexpectedly low for a tight loop", hits, v.GuardChecks)
	}
	// The counters must have been published.
	snap := v.Obs().Snapshot()
	if snap.Counters["carat.vm.xcache.hits"] != hits {
		t.Errorf("published hits = %d, want %d", snap.Counters["carat.vm.xcache.hits"], hits)
	}

	// The reference interpreter exists to check the cache's "hits replay the
	// recorded walk cost" claim, so it must not share the cache: same guard
	// checks and cycles, by full evaluator walks alone.
	cfg.Closure = reference
	rv, _ := run(t, m, cfg)
	if hits, misses, _ := rv.XCacheStats(); hits+misses != 0 || rv.sched.threads[0].xc != nil {
		t.Errorf("the reference interpreter probed an xcache: %d hits, %d misses", hits, misses)
	}
	if rv.GuardChecks != v.GuardChecks || rv.Cycles != v.Cycles {
		t.Errorf("reference: %d checks, %d cycles; compiled: %d, %d", rv.GuardChecks, rv.Cycles, v.GuardChecks, v.Cycles)
	}
}

// chaseModuleSrc builds a pointer-chasing workload with two heap
// allocations whose guarded accesses populate the xcache, so invalidation
// scope is observable per page.
const invalSrc = `module "inval"
global @slots : [4 x ptr]
func @malloc(%sz: i64) -> ptr
func @main() -> i64 {
entry:
  %a = call ptr @malloc(i64 4096)
  %b = call ptr @malloc(i64 4096)
  %p0 = gep ptr, @slots, 0
  store ptr %a, %p0
  %p1 = gep ptr, @slots, 1
  store ptr %b, %p1
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %m = and i64 %i, 255
  %qa = gep i64, %a, %m
  store i64 %i, %qa
  %qb = gep i64, %b, %m
  store i64 %i, %qb
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 2000
  condbr %c, ^loop, ^done
done:
  ret i64 0
}`

// TestXCacheInvalidationScope drives every map-changing operation against
// a VM mid-run and asserts the invalidation scope each must have:
// operations that leave the region set alone invalidate exactly the
// affected pages; region-set mutations flush everything.
func TestXCacheInvalidationScope(t *testing.T) {
	type opCase struct {
		name  string
		scope string // "pages" or "all"
		do    func(t *testing.T, v *VM, base uint64) (lo, hi uint64)
	}
	cases := []opCase{
		{"swap-out", "pages", func(t *testing.T, v *VM, base uint64) (uint64, uint64) {
			if _, err := v.SwapOutAllocation(base); err != nil {
				t.Fatal(err)
			}
			return base, base + 4096
		}},
		{"allocation-move", "pages", func(t *testing.T, v *VM, base uint64) (uint64, uint64) {
			dst := v.heap.alloc(4096)
			if dst == 0 {
				t.Fatal("heap exhausted")
			}
			if _, err := v.Runtime().MoveAllocationTo(base, dst); err != nil {
				t.Fatal(err)
			}
			return base, base + 4096
		}},
		// A kernel page move retires the source region and grants a new
		// destination region (RetireSrc -> ReleaseRegion), advancing the
		// region-set epoch: every cached walk result is stale no matter
		// its page, so the correct scope here is a full flush.
		{"page-move", "all", func(t *testing.T, v *VM, base uint64) (uint64, uint64) {
			page := base &^ (kernel.PageSize - 1)
			if _, err := v.Process().RequestMove(page, 1); err != nil {
				t.Fatal(err)
			}
			return 0, 0
		}},
		{"protect", "all", func(t *testing.T, v *VM, base uint64) (uint64, uint64) {
			page := base &^ (kernel.PageSize - 1)
			if err := v.Process().RequestProtect(page, kernel.PageSize, guard.PermRW); err != nil {
				t.Fatal(err)
			}
			return 0, 0
		}},
		{"grant", "all", func(t *testing.T, v *VM, base uint64) (uint64, uint64) {
			if _, err := v.Process().GrantRegion(kernel.PageSize, guard.PermRW); err != nil {
				t.Fatal(err)
			}
			return 0, 0
		}},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := compile(t, invalSrc, passes.LevelTracking)
			cfg := DefaultConfig()
			cfg.MemBytes = 1 << 24
			cfg.HeapBytes = 1 << 20
			v, err := Load(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fired := false
			var survivorsBefore, survivorsAfter int
			var droppedLo, droppedHi uint64
			v.SetMovePolicy(5000, func() error {
				if fired {
					return nil
				}
				fired = true
				// The running thread's cache is warm with both heap pages
				// (and stack/global pages). Apply the operation to the
				// first heap allocation and inspect what survived.
				base, _, ok := v.Runtime().WorstCaseHeapAllocation(v.heap.base, v.heap.end)
				if !ok {
					t.Fatal("no heap allocation to operate on")
				}
				tt := v.sched.threads[0]
				before := tt.xc.ValidPages()
				if len(before) == 0 {
					t.Fatal("xcache empty before operation")
				}
				droppedLo, droppedHi = c.do(t, v, base)
				after := tt.xc.ValidPages()
				survivorsBefore, survivorsAfter = len(before), len(after)
				if c.scope == "all" {
					if survivorsAfter != 0 {
						t.Errorf("%s: region-set change left %d entries live", c.name, survivorsAfter)
					}
					return nil
				}
				// Precise scope: every surviving page is outside the
				// affected range, and at least one unrelated page survived.
				for _, pg := range after {
					if pg+kernel.PageSize > droppedLo && pg < droppedHi {
						t.Errorf("%s: page %#x inside affected [%#x,%#x) survived", c.name, pg, droppedLo, droppedHi)
					}
				}
				outside := 0
				for _, pg := range before {
					if pg+kernel.PageSize <= droppedLo || pg >= droppedHi {
						outside++
					}
				}
				if outside > 0 && survivorsAfter == 0 {
					t.Errorf("%s: precise invalidation dropped unrelated pages (before %d, outside-range %d, after 0)",
						c.name, survivorsBefore, outside)
				}
				return nil
			})
			if _, err := v.Run(); err != nil {
				t.Fatal(err)
			}
			if !fired {
				t.Fatal("operation never ran")
			}
		})
	}
}

// Concurrent guarded execution against the allocation table: two
// program threads hammer tracked heap memory while the move policy drives
// map changes. Run under -race; the modeled result must also be stable.
func TestConcurrentGuardedExecution(t *testing.T) {
	src := `module "mt"
func @malloc(%sz: i64) -> ptr
func @thread_spawn(%fn: ptr, %arg: ptr) -> i64
func @thread_join(%tid: i64) -> void
func @worker(%arg: ptr) -> i64 {
entry:
  %buf = call ptr @malloc(i64 2048)
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %m = and i64 %i, 255
  %q = gep i64, %buf, %m
  store i64 %i, %q
  %x = load i64, %q
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 30000
  condbr %c, ^loop, ^done
done:
  %r = gep i64, %buf, 0
  %v = load i64, %r
  ret i64 %v
}
func @main() -> i64 {
entry:
  %a1 = inttoptr i64 1 to ptr
  %a2 = inttoptr i64 2 to ptr
  %t1 = call i64 @thread_spawn(ptr @worker, ptr %a1)
  %t2 = call i64 @thread_spawn(ptr @worker, ptr %a2)
  call void @thread_join(i64 %t1)
  call void @thread_join(i64 %t2)
  ret i64 0
}`
	run1 := func() int64 {
		m := compile(t, src, passes.LevelTracking)
		cfg := DefaultConfig()
		cfg.MemBytes = 1 << 24
		cfg.HeapBytes = 1 << 20
		v, err := Load(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		v.SetMovePolicy(5000, func() error { return v.InjectWorstCaseMove() })
		ret, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Runtime().Table.CheckInvariants(); err != nil {
			t.Error(err)
		}
		return ret
	}
	if a, b := run1(), run1(); a != b {
		t.Errorf("concurrent run not deterministic: %d vs %d", a, b)
	}
}

func TestPredecodeDeterminism(t *testing.T) {
	// Two identical runs of the compiled engine must agree to the cycle on a
	// program exercising tracking and moves.
	mk := func() (int64, uint64, uint64) {
		r := runEngine(t, 480, passes.LevelTracking, guard.MechRange, compiled, func(v *VM) {
			v.SetMovePolicy(1000, func() error { return v.InjectWorstCaseMove() })
		})
		return r.ret, r.cycles, r.instrs
	}
	r1, c1, i1 := mk()
	r2, c2, i2 := mk()
	if r1 != r2 || c1 != c2 || i1 != i2 {
		t.Errorf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", r1, c1, i1, r2, c2, i2)
	}
}
