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

// TestFirstCallAllocs holds first-call lowering to the closures, their pool
// and the slot table: about half the 198.2 B per instruction it took when an
// intermediate record per instruction was filled first, and no more
// allocations than the 1.21 it made then.
func TestFirstCallAllocs(t *testing.T) {
	const maxBytes, maxAllocs = 100, 1.25
	bytes, allocs := firstCallCost(t, 400)
	t.Logf("first call of a 2 000-instruction function: %.1f B and %.2f allocations per instruction", bytes, allocs)
	if bytes > maxBytes {
		t.Errorf("lowering allocates %.1f B per instruction, more than %d", bytes, maxBytes)
	}
	if allocs > maxAllocs {
		t.Errorf("lowering makes %.2f allocations per instruction, more than %.2f", allocs, maxAllocs)
	}
}

// TestFirstCallScalesLinearly: lowering a function eight times as long costs
// the same per instruction, in bytes and in allocations (within 10 %). A
// table grown per instruction, or a walk of the function per instruction,
// shows here as a ratio, whatever the absolute numbers.
func TestFirstCallScalesLinearly(t *testing.T) {
	smallB, smallA := firstCallCost(t, 400)
	bigB, bigA := firstCallCost(t, 3200)
	t.Logf("per instruction: %.1f B / %.3f allocations at 2 000 instructions, %.1f B / %.3f at 16 000",
		smallB, smallA, bigB, bigA)
	for _, c := range []struct {
		what       string
		small, big float64
	}{{"bytes", smallB, bigB}, {"allocations", smallA, bigA}} {
		if r := c.big / c.small; r > 1.1 || r < 1/1.1 {
			t.Errorf("%s per instruction: %.3f at 16 000 instructions vs %.3f at 2 000 (ratio %.2f, want within 1.1x)",
				c.what, c.big, c.small, r)
		}
	}
}

// TestInstrSize: the cached module holds every ir.Instr for as long as its
// Program lives (the compiled closures keep some of them for their cold
// paths), so its width is live heap per cached instruction. Op, Pred, Kind
// and ID share one word.
func TestInstrSize(t *testing.T) {
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
