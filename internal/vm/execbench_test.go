package vm_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/obs"
	"carat/internal/passes"
	"carat/internal/vm"
)

// execKernel builds testdata/execbench.cir with the given outer trip count,
// compiled at the given pipeline level.
func execKernel(tb testing.TB, iters int, lvl passes.Level) *ir.Module {
	tb.Helper()
	src, err := os.ReadFile("testdata/execbench.cir")
	if err != nil {
		tb.Fatal(err)
	}
	m, err := ir.Parse(strings.ReplaceAll(string(src), "%iters", strconv.Itoa(iters)))
	if err != nil {
		tb.Fatal(err)
	}
	pl := passes.Build(lvl)
	pl.Workers = 1
	if err := pl.Run(m); err != nil {
		tb.Fatal(err)
	}
	return m
}

// execLeg is one engine configuration over the exec kernel: the reference
// interpreter, the compiled engine, and the compiled engine with the cycle
// sampler and a registry attached.
type execLeg struct {
	name             string
	compiled, sample bool
}

var execLegs = []execLeg{{"reference", false, false}, {"compiled", true, false}, {"sampled", true, true}}

func (l execLeg) load(tb testing.TB, m *ir.Module) *vm.VM {
	tb.Helper()
	cfg := vm.DefaultConfig()
	cfg.MemBytes = 1 << 24
	cfg.HeapBytes = 1 << 20
	cfg.GuardMech = guard.MechBinarySearch
	cfg.Closure = l.compiled
	if l.sample {
		cfg.Obs = obs.NewRegistry()
		cfg.Sampler = obs.NewSampler(0)
	}
	v, err := vm.Load(m, cfg)
	if err != nil {
		tb.Fatalf("%s: %v", l.name, err)
	}
	return v
}

// TestEnginesOnExecKernel holds the three legs of the exec kernel to one
// modeled result: instructions and cycles are equal whichever engine runs
// and whether or not the sampler watches. The reference leg shares neither
// the compiled engine's xcache nor its call sites; both compiled legs use
// both.
func TestEnginesOnExecKernel(t *testing.T) {
	m := execKernel(t, 8, passes.LevelGuardsOnly)
	var instrs, cycles uint64
	for i, leg := range execLegs {
		v := leg.load(t, m)
		if _, err := v.Run(); err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if i == 0 {
			instrs, cycles = v.Instrs, v.Cycles
		} else if v.Instrs != instrs || v.Cycles != cycles {
			t.Errorf("%s: %d instrs, %d cycles; reference ran %d, %d", leg.name, v.Instrs, v.Cycles, instrs, cycles)
		}
		xh, xm, _ := v.XCacheStats()
		_, _, ih, im := v.ClosureStats()
		if leg.compiled && (xh == 0 || ih+im == 0) || !leg.compiled && xh+xm+ih+im != 0 {
			t.Errorf("%s: xcache %d/%d, call sites %d/%d", leg.name, xh, xm, ih, im)
		}
	}
	if instrs == 0 {
		t.Fatal("the kernel retired no instructions")
	}
}

// BenchmarkExec times a run of the exec kernel (60 outer iterations, ≈ 5.2 M
// instructions) on each leg; the load is outside the timer. sampled/compiled is the
// telemetry tax; compiled/reference is the engine over its oracle.
//
//	go test -run '^$' -bench BenchmarkExec -count 5 ./internal/vm/
func BenchmarkExec(b *testing.B) {
	m := execKernel(b, 60, passes.LevelGuardsOnly)
	for _, leg := range execLegs {
		b.Run(leg.name, func(b *testing.B) {
			var instrs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				v := leg.load(b, m)
				b.StartTimer()
				if _, err := v.Run(); err != nil {
					b.Fatal(err)
				}
				instrs += v.Instrs
			}
			b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstrs/s")
		})
	}
}

// BenchmarkGroup runs eight exec-kernel processes on one machine as a
// vm.Group, each moving its own worst-case page every 200 000 + 17 000·i of
// its instructions, and reports their aggregate throughput. Process i runs
// 40+i outer iterations, so no two digests alias. The group is built outside
// the timer.
//
//	go test -run '^$' -bench BenchmarkGroup -cpu 1,2,8 -count 5 ./internal/vm/
func BenchmarkGroup(b *testing.B) {
	const procs = 8
	mods := make([]*ir.Module, procs)
	for i := range mods {
		mods[i] = execKernel(b, 40+i, passes.LevelGuardsOnly)
	}
	var instrs uint64
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		g := vm.NewGroup(1 << 26)
		for i, m := range mods {
			cfg := vm.DefaultConfig()
			cfg.HeapBytes = 1 << 20
			cfg.GuardMech = guard.MechBinarySearch
			v, err := g.Add(fmt.Sprintf("p%d", i), m, cfg, 1024)
			if err != nil {
				b.Fatal(err)
			}
			v.SetMovePolicy(uint64(200_000+i*17_000), v.InjectWorstCaseMove)
		}
		b.StartTimer()
		for _, r := range g.Run() {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.Name, r.Err)
			}
			instrs += r.Instrs
		}
		b.StopTimer()
		if err := g.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstrs/s")
}
