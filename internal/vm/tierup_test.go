package vm

import (
	"os"
	"runtime"
	"testing"
	"unsafe"

	"carat/internal/cc"
	"carat/internal/ir"
	"carat/internal/passes"
)

// straightLine is a function whose one block repeats, n times, what a
// generated program's main does per callee: load the accumulator, call, mix,
// store it back — five instructions a repetition.
func straightLine(n int) *ir.Module {
	m := ir.NewModule("line")
	leaf := m.AddFunc("leaf", ir.I64, &ir.Param{Name: "x", Typ: ir.I64})
	ir.NewBuilder(leaf).Ret(leaf.Params[0])
	b := ir.NewBuilder(m.AddFunc("main", ir.I64))
	acc := b.Alloca(ir.I64, b.I64(1))
	b.Store(b.I64(1), acc)
	for i := 0; i < n; i++ {
		v := b.Load(ir.I64, acc)
		b.Store(b.And(b.Xor(v, b.Call(leaf, v)), b.I64(0x7fffffff)), acc)
	}
	b.Ret(b.Load(ir.I64, acc))
	return m
}

// firstCallCost binds @main of straightLine(n) over and over, each time as
// the first call the program ever saw, and returns what one bind allocates
// per IR instruction.
func firstCallCost(t testing.TB, n int) (bytesPerInstr, allocsPerInstr float64) {
	m := straightLine(n)
	v, err := Load(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	idx := v.prog.funcIdx[m.Func("main")]
	instrs := float64(m.Func("main").NumInstrs())
	bind := func() {
		code := &v.prog.funcs[idx]
		code.layout.Store(nil)
		code.cf.Store(nil)
		v.bind(&funcBinding{}, idx)
	}
	const runs = 20
	allocs := testing.AllocsPerRun(runs, bind)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		bind()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs / instrs, allocs / instrs
}

// TestFirstCallAllocs holds first-call lowering to what it cost after it was
// rebuilt to allocate in proportion to what it lowers (PR 22). The parent
// spent 394.8 B and 2.42 allocations per instruction on this function — a
// 240-byte pinstr returned and appended by value, an interface-keyed slot map
// grown insert by insert, a wrapper closure per observing instruction; the
// bound is 60 % of its bytes and no more allocations.
func TestFirstCallAllocs(t *testing.T) {
	const parentBytes, parentAllocs = 394.8, 2.42
	bytes, allocs := firstCallCost(t, 400)
	t.Logf("first call of a 2 000-instruction function: %.1f B and %.2f allocations per instruction", bytes, allocs)
	if bytes > 0.6*parentBytes {
		t.Errorf("lowering allocates %.1f B per instruction, more than 60 %% of the %.1f B it used to", bytes, parentBytes)
	}
	if allocs > parentAllocs {
		t.Errorf("lowering makes %.2f allocations per instruction, more than the %.2f it used to", allocs, parentAllocs)
	}
}

// TestPinstrSize: the predecoded form outlives the compile (guards' cold
// paths point into it, and caratd caches it with the Program), so its width
// is live heap per cached instruction.
func TestPinstrSize(t *testing.T) {
	if size := unsafe.Sizeof(pinstr{}); size > 88 {
		t.Errorf("pinstr is %d bytes, want at most 88", size)
	}
	// And the IR it was lowered from, which the cached module holds too: Op,
	// Pred, Kind and ID share one word.
	if size := unsafe.Sizeof(ir.Instr{}); size > 128 {
		t.Errorf("ir.Instr is %d bytes, want at most 128", size)
	}
}

// BenchmarkTierUp prices a module's first run: load, then lower and run each
// of the 240 functions of a program in the shape the repo benchmark's
// compile-cold workload generates (every function is called once, so the run
// is almost all lowering). ns/instr is per IR instruction loaded.
//
//	go test -run '^$' -bench TierUp -benchmem ./internal/vm/
func BenchmarkTierUp(b *testing.B) {
	src, err := os.ReadFile("../cc/testdata/gen240.c")
	if err != nil {
		b.Fatal(err)
	}
	m, err := cc.Compile("gen240", string(src))
	if err != nil {
		b.Fatal(err)
	}
	if err := passes.Build(passes.LevelTracking).Run(m); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MemBytes, cfg.HeapBytes = 16<<20, 4<<20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := Load(m, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if ret, err := v.Run(); err != nil || ret != 527403775 {
			b.Fatalf("run = %d, %v", ret, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m.NumInstrs()), "ns/instr")
}
