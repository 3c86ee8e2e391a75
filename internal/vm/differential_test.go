package vm

import (
	"math/rand"
	"testing"

	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/passes"
)

// Differential fuzzing: generate random (but well-formed and memory-safe)
// programs and check the suite-wide invariant — every pipeline level, every
// guard mechanism, and concurrent page moves all compute the same result.
// This is the strongest correctness evidence for the guard optimizations
// and the move engine: any unsound hoist/merge/eliminate or mispatched
// pointer shows up as an output mismatch or a spurious fault.

// genProgram builds a random program from a seed. All memory accesses are
// mask-bounded so the program is memory-safe by construction; indices mix
// loop induction variables, loaded values, and RNG state.
func genProgram(seed int64) *ir.Module {
	const innerMark = 0x5eed
	rng := rand.New(rand.NewSource(seed))
	m := ir.NewModule("fuzz")
	malloc := m.DeclareFunc(ir.FnMalloc, ir.Ptr, ir.I64)
	freeFn := m.DeclareFunc(ir.FnFree, ir.Void, ir.Ptr)

	const arrLen = 256 // power of two for cheap masking
	nGlobals := 1 + rng.Intn(3)
	var globals []*ir.Global
	for i := 0; i < nGlobals; i++ {
		globals = append(globals, m.AddGlobal("g"+string(rune('0'+i)), ir.ArrayOf(ir.I64, arrLen)))
	}
	slot := m.AddGlobal("slot", ir.Ptr)

	f := m.AddFunc("main", ir.I64)
	b := ir.NewBuilder(f)

	// Optionally allocate a heap buffer and escape it, and a second block
	// whose pointer lives in the buffer's word past its masked array: an
	// escape inside the buffer, which a move or swap of it must carry.
	useHeap := rng.Intn(2) == 0
	if useHeap {
		heapBuf := b.Call(malloc, b.I64((arrLen+1)*8))
		b.Store(heapBuf, slot)
		inner := b.Call(malloc, b.I64(64))
		b.Store(b.I64(innerMark), inner)
		b.Store(inner, b.GEP(ir.Ptr, heapBuf, b.I64(arrLen)))
	}

	// acc accumulates everything the program computes.
	acc := b.Alloca(ir.I64, nil)
	b.Store(b.I64(int64(rng.Intn(100))), acc)

	arrays := func() ir.Value {
		if useHeap && rng.Intn(3) == 0 {
			return b.Load(ir.Ptr, slot)
		}
		return globals[rng.Intn(len(globals))]
	}

	// Random statement sequence with nested loops.
	var emit func(depth int, iv ir.Value)
	emit = func(depth int, iv ir.Value) {
		stmts := 2 + rng.Intn(4)
		for s := 0; s < stmts; s++ {
			switch choice := rng.Intn(6); {
			case choice == 0 && depth < 2:
				// Nested counted loop.
				trips := int64(2 + rng.Intn(8))
				b.Loop(b.I64(0), b.I64(trips), b.I64(1), func(i ir.Value) {
					emit(depth+1, i)
				})
			case choice == 1 && iv != nil:
				// Store f(iv) into a random array at a masked index.
				arr := arrays()
				idx := b.And(b.Add(iv, b.I64(int64(rng.Intn(64)))), b.I64(arrLen-1))
				val := b.Add(b.Mul(iv, b.I64(int64(1+rng.Intn(5)))), b.I64(int64(rng.Intn(9))))
				b.Store(val, b.GEP(ir.I64, arr, idx))
			case choice == 2:
				// Load from a masked random index, fold into acc.
				arr := arrays()
				var idx ir.Value = b.I64(int64(rng.Intn(arrLen)))
				if iv != nil && rng.Intn(2) == 0 {
					idx = b.And(iv, b.I64(arrLen-1))
				}
				x := b.Load(ir.I64, b.GEP(ir.I64, arr, idx))
				cur := b.Load(ir.I64, acc)
				b.Store(b.Add(cur, x), acc)
			case choice == 3:
				// Pure arithmetic on acc.
				cur := b.Load(ir.I64, acc)
				ops := []func(a, c ir.Value) *ir.Instr{b.Add, b.Sub, b.Xor, b.Mul, b.Or, b.And}
				r := ops[rng.Intn(len(ops))](cur, b.I64(int64(rng.Intn(1000)+1)))
				b.Store(r, acc)
			case choice == 4 && iv != nil:
				// Conditional accumulate via select.
				cur := b.Load(ir.I64, acc)
				c := b.ICmp(ir.PredLT, b.And(iv, b.I64(7)), b.I64(int64(rng.Intn(8))))
				b.Store(b.Select(c, b.Add(cur, b.I64(3)), cur), acc)
			default:
				// Array-to-array copy at masked indices.
				src, dst := arrays(), arrays()
				i1 := b.I64(int64(rng.Intn(arrLen)))
				i2 := b.I64(int64(rng.Intn(arrLen)))
				x := b.Load(ir.I64, b.GEP(ir.I64, src, i1))
				b.Store(x, b.GEP(ir.I64, dst, i2))
			}
		}
	}
	// Top-level loop so guard optimizations have something to chew on.
	b.Loop(b.I64(0), b.I64(int64(8+rng.Intn(24))), b.I64(1), func(i ir.Value) {
		emit(0, i)
	})

	// Checksum all arrays into the result.
	sum := b.Load(ir.I64, acc)
	for _, g := range globals {
		b.Loop(b.I64(0), b.I64(arrLen), b.I64(1), func(i ir.Value) {
			x := b.Load(ir.I64, b.GEP(ir.I64, g, i))
			cur := b.Load(ir.I64, acc)
			b.Store(b.Add(cur, b.Mul(x, b.Add(i, b.I64(1)))), acc)
		})
	}
	_ = sum
	if useHeap {
		hb := b.Load(ir.Ptr, slot)
		b.Loop(b.I64(0), b.I64(arrLen), b.I64(1), func(i ir.Value) {
			x := b.Load(ir.I64, b.GEP(ir.I64, hb, i))
			cur := b.Load(ir.I64, acc)
			b.Store(b.Xor(cur, b.Add(x, i)), acc)
		})
		inner := b.Load(ir.Ptr, b.GEP(ir.Ptr, hb, b.I64(arrLen)))
		b.Store(b.Add(b.Load(ir.I64, acc), b.Load(ir.I64, inner)), acc)
		b.Call(freeFn, inner)
		b.Call(freeFn, hb)
	}
	b.Ret(b.Load(ir.I64, acc))
	if err := m.Verify(); err != nil {
		panic(err)
	}
	return m
}

// The two engines every differential leg names: the compiled engine is what
// ships (DefaultConfig); the reference interpreter is the oracle, sharing no
// lowering and no cache with it. Reference legs run once per seed — it is an
// order of magnitude slower — and every other leg is compared against them.
const (
	reference = false // Config.Closure clear
	compiled  = true
)

// runSeed compiles the seed's program at the given level and runs it on
// the compiled engine.
func runSeed(t *testing.T, seed int64, lvl passes.Level, mech guard.Mechanism,
	tweak func(*VM)) int64 {
	return runSeedEngine(t, seed, lvl, mech, compiled, tweak)
}

// runSeedEngine is runSeed with an engine choice (reference or compiled).
func runSeedEngine(t *testing.T, seed int64, lvl passes.Level, mech guard.Mechanism,
	engine bool, tweak func(*VM)) int64 {
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
	if tweak != nil {
		tweak(v)
	}
	ret, err := v.Run()
	if err != nil {
		t.Fatalf("seed %d (compiled=%v): run: %v", seed, engine, err)
	}
	return ret
}

func TestDifferentialPipelineLevels(t *testing.T) {
	levels := []passes.Level{
		passes.LevelNone, passes.LevelGuardsOnly, passes.LevelGuardsOpt,
		passes.LevelTracking, passes.LevelTrackingOnly,
	}
	for seed := int64(1); seed <= 40; seed++ {
		want := runSeedEngine(t, seed, passes.LevelNone, guard.MechRange, reference, nil)
		for _, lvl := range levels {
			if got := runSeed(t, seed, lvl, guard.MechRange, nil); got != want {
				t.Errorf("seed %d level %d: got %d, want %d (reference, uninstrumented)", seed, lvl, got, want)
			}
		}
	}
}

func TestDifferentialGuardMechanisms(t *testing.T) {
	mechs := []guard.Mechanism{guard.MechRange, guard.MechMPX, guard.MechIfTree,
		guard.MechBinarySearch, guard.MechLinear}
	for seed := int64(50); seed <= 65; seed++ {
		want := runSeedEngine(t, seed, passes.LevelGuardsOpt, guard.MechRange, reference, nil)
		for _, mech := range mechs {
			if got := runSeed(t, seed, passes.LevelGuardsOpt, mech, nil); got != want {
				t.Errorf("seed %d mech %v: got %d, want %d (reference, range guards)", seed, mech, got, want)
			}
		}
	}
}

func TestDifferentialUnderPageMoves(t *testing.T) {
	for seed := int64(100); seed <= 125; seed++ {
		want := runSeedEngine(t, seed, passes.LevelTracking, guard.MechRange, reference, nil)
		movePolicy := func(v *VM) {
			v.SetMovePolicy(750, func() error { return v.InjectWorstCaseMove() })
		}
		if got := runSeed(t, seed, passes.LevelTracking, guard.MechRange, movePolicy); got != want {
			t.Errorf("seed %d with page moves: got %d, want %d (reference, no moves)", seed, got, want)
		}
	}
}

func TestDifferentialUnderAllocationMoves(t *testing.T) {
	for seed := int64(200); seed <= 220; seed++ {
		want := runSeedEngine(t, seed, passes.LevelTracking, guard.MechRange, reference, nil)
		movePolicy := func(v *VM) {
			v.SetMovePolicy(600, func() error {
				if err := v.InjectWorstCaseAllocationMove(); err != nil {
					return nil // seed may have no heap allocations
				}
				return nil
			})
		}
		if got := runSeed(t, seed, passes.LevelTracking, guard.MechRange, movePolicy); got != want {
			t.Errorf("seed %d with allocation moves: got %d, want %d (reference, no moves)", seed, got, want)
		}
	}
}

func TestDifferentialCapsule(t *testing.T) {
	for seed := int64(300); seed <= 315; seed++ {
		want := runSeedEngine(t, seed, passes.LevelGuardsOpt, guard.MechRange, reference, nil)
		m := genProgram(seed)
		pl := passes.Build(passes.LevelGuardsOpt)
		if err := pl.Run(m); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MemBytes = 1 << 23
		cfg.HeapBytes = 1 << 19
		cfg.StackBytes = 1 << 17 // capsule stacks are carved from the heap
		cfg.Capsule = true
		v, err := Load(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.Run()
		if err != nil {
			t.Fatalf("seed %d capsule: %v", seed, err)
		}
		if got != want {
			t.Errorf("seed %d capsule: got %d, want %d", seed, got, want)
		}
	}
}

// DESIGN.md invariant: guard optimization must never ADMIT an access the
// unoptimized program would have trapped. Programs that forge
// out-of-region pointers (in straight-line code, inside loops, and via
// bounded-looking arithmetic on forged bases) must fault at every
// optimization level.
func TestOptimizedGuardsStillTrapIllegalAccesses(t *testing.T) {
	progs := []string{
		// Straight-line forged load.
		`module "p1"
func @main() -> i64 {
entry:
  %p = inttoptr i64 87654321000 to ptr
  %v = load i64, %p
  ret i64 %v
}`,
		// Forged base walked in a loop: hoisting/merging must not lose
		// the trap.
		`module "p2"
func @main() -> i64 {
entry:
  %p = inttoptr i64 87654321000 to ptr
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %s = phi i64 [0, ^entry], [%s1, ^loop]
  %q = gep i64, %p, %i
  %v = load i64, %q
  %s1 = add i64 %s, %v
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 16
  condbr %c, ^loop, ^done
done:
  ret i64 %s1
}`,
		// Masked index over a forged base: the bounded-index merge must
		// still guard the (illegal) window.
		`module "p3"
func @main() -> i64 {
entry:
  %p = inttoptr i64 87654321000 to ptr
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %m = and i64 %i, 7
  %q = gep i64, %p, %m
  store i64 %i, %q
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 16
  condbr %c, ^loop, ^done
done:
  ret i64 0
}`,
	}
	for pi, src := range progs {
		for _, lvl := range []passes.Level{passes.LevelGuardsOnly, passes.LevelGuardsOpt, passes.LevelTracking} {
			for _, engine := range []bool{reference, compiled} {
				m := compile(t, src, lvl)
				cfg := DefaultConfig()
				cfg.MemBytes = 1 << 22
				cfg.HeapBytes = 1 << 18
				cfg.Closure = engine
				v, err := Load(m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := v.Run(); err == nil {
					t.Errorf("program %d at level %d (compiled=%v): illegal access was admitted",
						pi+1, lvl, engine)
				}
			}
		}
	}
}
