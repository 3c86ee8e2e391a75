package passes_test

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"carat/internal/cc"
	"carat/internal/ir"
	"carat/internal/passes"
	"carat/internal/workload"
)

// straightLine is a function whose one block repeats, n times, what a
// generated program's main does per callee: load the accumulator, call, mix,
// store it back. Every repetition gets three guards, two of which AC/DC then
// removes — the long block on which editing one instruction at a time, each
// a search and a shift, was quadratic.
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

// gen240 compiles internal/cc/testdata/gen240.c, a program in the shape the
// repo benchmark's compile-cold workload generates: 241 functions averaging
// 6.5 blocks and 43 instructions, so what a function costs before its first
// instruction is looked at is what the pipeline costs.
func gen240(tb testing.TB) func() *ir.Module {
	src, err := os.ReadFile("../cc/testdata/gen240.c")
	if err != nil {
		tb.Fatal(err)
	}
	return func() *ir.Module {
		m, err := cc.Compile("gen240", string(src))
		if err != nil {
			tb.Fatal(err)
		}
		return m
	}
}

// BenchmarkPipeline times the full CARAT pipeline (LevelTracking, one worker)
// over a suite kernel, over gen240 (the leg that resolves per-function cost:
// kernel/FT ranges ± 20 % run to run) and over straightLine at n and 4n:
// ns/instr is per instruction going in, and a pipeline that costs what it is
// given reads the same on both lines.
func BenchmarkPipeline(b *testing.B) {
	ft, err := workload.Get("FT")
	if err != nil {
		b.Fatal(err)
	}
	const n = 500
	for _, c := range []struct {
		name  string
		build func() *ir.Module
	}{
		{"kernel/FT", func() *ir.Module { return ft.Build(workload.ScaleTest) }},
		{"gen/240", gen240(b)},
		{fmt.Sprintf("line/%d", n), func() *ir.Module { return straightLine(n) }},
		{fmt.Sprintf("line/%d", 4*n), func() *ir.Module { return straightLine(4 * n) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			instrs := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := c.build()
				instrs += m.NumInstrs()
				pm := passes.Build(passes.LevelTracking)
				pm.Workers = 1
				b.StartTimer()
				if err := pm.Run(m); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}

// foldCSEChain is one block of n links, each a constant add that folds only
// once the link before it has (a fold chain) and an expression every link
// repeats (one wide CSE class) mixed into a running sum: n folds and n-1
// eliminations, each of which, rewriting its uses by walking the function,
// made the two passes quadratic.
func foldCSEChain(n int) *ir.Module {
	m := ir.NewModule("chain")
	f := m.AddFunc("main", ir.I64, &ir.Param{Name: "x", Typ: ir.I64})
	b := ir.NewBuilder(f)
	x := f.Params[0]
	var k, sum ir.Value = b.I64(1), x
	for i := 0; i < n; i++ {
		k = b.Add(k, b.I64(int64(i)))
		sum = b.Add(sum, b.Xor(x, b.I64(0x55)))
	}
	b.Ret(b.Add(sum, k))
	return m
}

// TestFoldCSEScalesLinearly: the pipeline over a fold/CSE chain eight times
// as long costs the same per instruction, within 1.3x. Each length takes the
// least of seven timings, the two lengths alternating and the collector off
// while the clock runs: the box is noisy, and a quadratic pass is not subtle
// (rewriting uses by walking the function read 7.9x here).
func TestFoldCSEScalesLinearly(t *testing.T) {
	if raceDetector {
		t.Skip("timing: under -race the detector's instrumentation sets the cost per instruction")
	}
	const n = 250
	links := [2]int{n, 8 * n}
	best := [2]float64{}
	for rep := 0; rep < 7; rep++ {
		for k, l := range links {
			m := foldCSEChain(l)
			instrs := m.NumInstrs()
			pm := passes.Build(passes.LevelTracking)
			pm.Workers = 1
			runtime.GC()
			gc := debug.SetGCPercent(-1)
			t0 := time.Now()
			err := pm.Run(m)
			ns := float64(time.Since(t0).Nanoseconds()) / float64(instrs)
			debug.SetGCPercent(gc)
			if err != nil {
				t.Fatal(err)
			}
			if pm.Stats.Folded != l || pm.Stats.CSEd != l-1 {
				t.Fatalf("%d links: folded %d, CSEd %d; want %d and %d", l, pm.Stats.Folded, pm.Stats.CSEd, l, l-1)
			}
			if rep == 0 || ns < best[k] {
				best[k] = ns
			}
		}
	}
	small, big := best[0], best[1]
	t.Logf("passes.run: %.0f ns per instruction at %d links, %.0f at %d", small, links[0], big, links[1])
	if big > 1.3*small {
		t.Errorf("passes.run per instruction grows with the chain: %.0f ns at %d links vs %.0f at %d (ratio %.2f, want within 1.3x)",
			big, links[1], small, links[0], big/small)
	}
}

// TestPipelineAllocsScaleLinearly stands in for a big-over-small ratio of the
// pipeline, as TestParseAllocsScaleLinearly does for the parser: allocation
// counts repeat exactly where timings do not. Per instruction, a block four
// times as long may cost no more allocations than the short one.
func TestPipelineAllocsScaleLinearly(t *testing.T) {
	perInstr := func(n int) float64 {
		instrs := straightLine(n).NumInstrs()
		allocs := testing.AllocsPerRun(5, func() {
			pm := passes.Build(passes.LevelTracking)
			pm.Workers = 1
			if err := pm.Run(straightLine(n)); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / float64(instrs)
	}
	small, big := perInstr(500), perInstr(2000)
	t.Logf("allocs per instruction: %.2f at 500 repetitions, %.2f at 2000", small, big)
	if big > 1.1*small {
		t.Errorf("pipeline allocations grow faster than the block: %.2f/instr at 2000 repetitions vs %.2f at 500", big, small)
	}
}

// TestPipelineAllocsPerInstr pins what the pipeline allocates per incoming
// instruction of gen240, where per-function tables dominate. At the commit
// before the analyses indexed by ir.Block.Idx and ir.Instr.ID instead of
// hashing pointers it read 6.61 allocations and 521 bytes, with them 4.58 and
// 354; a pointer-keyed map coming back shows here first. ConstFold and CSE
// resolving uses through one table by Instr.ID, shared small constants and
// strconv-built names took it to 3.69 and 357.
func TestPipelineAllocsPerInstr(t *testing.T) {
	build := gen240(t)
	const runs = 3
	mods := make([]*ir.Module, runs)
	instrs := 0
	for i := range mods {
		mods[i] = build()
		instrs += mods[i].NumInstrs()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, m := range mods {
		pm := passes.Build(passes.LevelTracking)
		pm.Workers = 1
		if err := pm.Run(m); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(instrs)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(instrs)
	t.Logf("gen240: %.2f allocations and %.0f bytes per incoming instruction", allocs, bytes)
	if allocs > 4.0 || bytes > 375 {
		t.Errorf("pipeline allocates %.2f times and %.0f bytes per instruction, want at most 4.0 and 375 (a caratdebug build, which verifies after every pass, reads 3.90 and 371)", allocs, bytes)
	}
}
