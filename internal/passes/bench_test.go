package passes_test

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
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

// A scaling input is built off the clock: input returns the step to time
// and the number of instructions it is measured per.
type scalingInput func(tb testing.TB, n int) (run func(), instrs int)

// pipelineOver times the CARAT pipeline (LevelTracking, one worker) over
// what build returns.
func pipelineOver(build func(n int) *ir.Module) scalingInput {
	return func(tb testing.TB, n int) (func(), int) {
		m := build(n)
		return func() {
			pm := passes.Build(passes.LevelTracking)
			pm.Workers = 1
			if err := pm.Run(m); err != nil {
				tb.Fatal(err)
			}
		}, m.NumInstrs()
	}
}

// loopMain returns a module whose @main(%x, %a, %n) runs one counted loop of
// %n iterations, body emitting the loop body around the induction value i,
// and stores what body returns to @out on every iteration.
func loopMain(body func(b *ir.Builder, x, a, i ir.Value) ir.Value) *ir.Module {
	m := ir.NewModule("loop")
	out := m.AddGlobal("out", ir.I64)
	f := m.AddFunc("main", ir.Void, &ir.Param{Name: "x", Typ: ir.I64},
		&ir.Param{Name: "a", Typ: ir.Ptr}, &ir.Param{Name: "n", Typ: ir.I64})
	b := ir.NewBuilder(f)
	b.Loop(b.I64(0), f.Params[2], b.I64(1), func(i ir.Value) {
		b.Store(body(b, f.Params[0], f.Params[1], i), out)
	})
	b.Ret(nil)
	return m
}

// invariantChain is a loop whose body adds %x to itself n times, each link
// using the one before it: LICM hoists the whole chain into the preheader.
func invariantChain(n int) *ir.Module {
	return loopMain(func(b *ir.Builder, x, _, _ ir.Value) ir.Value {
		k := x
		for j := 0; j < n; j++ {
			k = b.Add(k, x)
		}
		return k
	})
}

// hoistedStores is a loop storing to n fixed slots of %a: LICM hoists the n
// addresses and HoistGuards the n store guards into the preheader.
func hoistedStores(n int) *ir.Module {
	return loopMain(func(b *ir.Builder, _, a, i ir.Value) ir.Value {
		for j := 0; j < n; j++ {
			b.Store(i, b.GEP(ir.I64, a, b.I64(int64(j))))
		}
		return i
	})
}

// mergedLoads is a loop loading %a[i+j] for j < n: MergeGuards replaces each
// load guard with a range guard computed in the preheader.
func mergedLoads(n int) *ir.Module {
	return loopMain(func(b *ir.Builder, _, a, i ir.Value) ir.Value {
		sum := i
		for j := 0; j < n; j++ {
			sum = b.Xor(sum, b.Load(ir.I64, b.GEP(ir.I64, a, b.Add(i, b.I64(int64(j))))))
		}
		return sum
	})
}

// manyLocals is CARAT-C whose straight-line main declares n locals, each the
// one before it plus one: cc gives every one a slot at the entry block's head.
func manyLocals(n int) string {
	var sb strings.Builder
	sb.WriteString("func main(): int {\n    var v0 = 1;\n")
	for j := 1; j < n; j++ {
		fmt.Fprintf(&sb, "    var v%d = v%d + 1;\n", j, j-1)
	}
	fmt.Fprintf(&sb, "    return v%d;\n}\n", n-1)
	return sb.String()
}

// ccCompile times cc.Compile of manyLocals(n), per instruction it emits.
func ccCompile(tb testing.TB, n int) (func(), int) {
	src := manyLocals(n)
	compile := func() *ir.Module {
		m, err := cc.Compile("locals", src)
		if err != nil {
			tb.Fatal(err)
		}
		return m
	}
	return func() { compile() }, compile().NumInstrs()
}

// A scalingCase is a named input at size n.
type scalingCase struct {
	name  string
	n     int
	input scalingInput
}

// scalingCases are the inputs on which moving instructions between blocks one
// at a time, each a search of a block and a shift of its tail, made a compile
// quadratic: each is timed at n and 8n.
var scalingCases = []scalingCase{
	{"foldcse", 250, pipelineOver(foldCSEChain)},
	{"licm", 500, pipelineOver(invariantChain)},
	{"hoist", 500, pipelineOver(hoistedStores)},
	{"merge", 500, pipelineOver(mergedLoads)},
	{"cc", 500, ccCompile},
}

// BenchmarkPipeline times the full CARAT pipeline (LevelTracking, one worker)
// over a suite kernel, over gen240 (the leg that resolves per-function cost:
// kernel/FT ranges ± 20 % run to run), over straightLine at n and 4n, and
// over each scaling case at n and 8n (the cc leg times cc.Compile): ns/instr
// is per instruction going in, and a compile that costs what it is given
// reads the same on both lines of a pair.
func BenchmarkPipeline(b *testing.B) {
	ft, err := workload.Get("FT")
	if err != nil {
		b.Fatal(err)
	}
	gen := gen240(b)
	const n = 500
	legs := []scalingCase{
		{"kernel/FT", 0, pipelineOver(func(int) *ir.Module { return ft.Build(workload.ScaleTest) })},
		{"gen/240", 0, pipelineOver(func(int) *ir.Module { return gen() })},
		{fmt.Sprintf("line/%d", n), n, pipelineOver(straightLine)},
		{fmt.Sprintf("line/%d", 4*n), 4 * n, pipelineOver(straightLine)},
	}
	for _, c := range scalingCases {
		for _, n := range []int{c.n, 8 * c.n} {
			legs = append(legs, scalingCase{fmt.Sprintf("%s/%d", c.name, n), n, c.input})
		}
	}
	for _, c := range legs {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			instrs := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				run, k := c.input(b, c.n)
				instrs += k
				b.StartTimer()
				run()
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

// TestCompileScalesLinearly: over every scaling case, a compile of an input
// eight times as large costs the same per instruction, within 1.3x. A sample
// compiles eight inputs of n or one of 8n, so both sizes are timed over the
// same work; the two sizes alternate, each takes the least of eleven
// samples, and the collector is off while the clock runs. The box is noisy,
// so a case gets five attempts; a quadratic pass fails every one, by far:
// rewriting uses by walking the function read 7.9x on the fold/CSE chain, and
// moving one instruction at a time between blocks 2.2x to 6.9x on the others.
func TestCompileScalesLinearly(t *testing.T) {
	if raceDetector {
		t.Skip("timing: under -race the detector's instrumentation sets the cost per instruction")
	}
	for _, c := range scalingCases {
		t.Run(c.name, func(t *testing.T) {
			sizes, copies := [2]int{c.n, 8 * c.n}, [2]int{8, 1}
			var best [2]float64
			for attempt := 0; attempt < 5; attempt++ {
				for rep := 0; rep < 11; rep++ {
					for k := range sizes {
						if ns := perInstr(t, c.input, sizes[k], copies[k]); rep == 0 || ns < best[k] {
							best[k] = ns
						}
					}
				}
				t.Logf("%.0f ns per instruction at n = %d, %.0f at %d", best[0], sizes[0], best[1], sizes[1])
				if best[1] <= 1.3*best[0] {
					return
				}
			}
			t.Errorf("cost per instruction grows with the input: %.0f ns at n = %d vs %.0f at %d (ratio %.2f, want within 1.3x)",
				best[1], sizes[1], best[0], sizes[0], best[1]/best[0])
		})
	}
}

// perInstr times copies inputs of size n back to back and returns the cost
// per instruction.
func perInstr(t *testing.T, input scalingInput, n, copies int) float64 {
	runs := make([]func(), copies)
	instrs := 0
	for i := range runs {
		var k int
		runs[i], k = input(t, n)
		instrs += k
	}
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	t0 := time.Now()
	for _, run := range runs {
		run()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(instrs)
}

// TestFoldCSEChainCounts: the fold/CSE chain of n links folds n times and
// eliminates n-1 expressions, so its scaling case times the work it names.
func TestFoldCSEChainCounts(t *testing.T) {
	for _, n := range []int{250, 2000} {
		pm := passes.Build(passes.LevelTracking)
		if err := pm.Run(foldCSEChain(n)); err != nil {
			t.Fatal(err)
		}
		if pm.Stats.Folded != n || pm.Stats.CSEd != n-1 {
			t.Fatalf("%d links: folded %d, CSEd %d; want %d and %d", n, pm.Stats.Folded, pm.Stats.CSEd, n, n-1)
		}
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
