package vm

import (
	"strings"
	"testing"

	"carat/internal/obs"
	"carat/internal/passes"
)

// samplerSrc churns the heap inside a guarded loop so every profiled
// phase — exec, guard, escape-flush — accumulates enough cycles to clear
// several sampling intervals.
const samplerSrc = `module "samprec"
global @slot : ptr
global @a : [256 x i64]
func @malloc(%sz: i64) -> ptr
func @free(%p: ptr) -> void
func @main() -> i64 {
entry:
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^latch]
  %acc = phi i64 [0, ^entry], [%acc2, ^latch]
  %p = call ptr @malloc(i64 128)
  store ptr %p, @slot
  %q = gep i64, %p, 2
  store i64 %i, %q
  %x = load i64, %q
  %m = and i64 %i, 255
  %pa = gep i64, @a, %m
  store i64 %x, %pa
  %y = load i64, %pa
  %acc2 = add i64 %acc, %y
  call void @free(ptr %p)
  br ^latch
latch:
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 200
  condbr %c, ^loop, ^done
done:
  ret i64 %acc2
}`

// TestSamplerReconcilesWithCycleCounters runs a real program with the
// profiler attached and checks the acceptance invariant: per-phase sample
// totals times the interval reconcile with the underlying cycle-attribution
// counters to within one sampling interval per track.
func TestSamplerReconcilesWithCycleCounters(t *testing.T) {
	const interval = 64
	m := compile(t, samplerSrc, passes.LevelTracking)
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 24
	cfg.HeapBytes = 1 << 20
	s := obs.NewSampler(interval)
	cfg.Sampler = s
	v, _ := run(t, m, cfg)

	// Reconstruct the pre-fold execution clock: Run folds tracking, guard,
	// and protocol cycles into v.Cycles after the final exec sample.
	tracking := v.rt.Stats.TrackingCycle.Get()
	var protocol uint64
	for _, bd := range v.rt.MoveStats {
		protocol += bd.TotalCycles()
	}
	execPre := v.Cycles - tracking - v.eval.Cycles - protocol

	ps := s.PhaseSamples()
	checks := []struct {
		phase  string
		cycles uint64
	}{
		{"exec", execPre},
		{"guard", v.eval.Cycles},
		{"escape-flush", tracking},
	}
	for _, c := range checks {
		folded := ps[c.phase] * interval
		if folded > c.cycles || c.cycles-folded >= interval {
			t.Errorf("phase %s: %d samples * %d = %d cycles vs counter %d: off by >= one interval",
				c.phase, ps[c.phase], interval, folded, c.cycles)
		}
	}
	if ps["exec"] == 0 || ps["guard"] == 0 || ps["escape-flush"] == 0 {
		t.Errorf("phase samples missing: %v", ps)
	}

	// Exec samples carry the guest stack, rooted at the entry function.
	doc := s.Snapshot()
	foundMain := false
	for _, fs := range doc.Stacks {
		if fs.Phase == "exec" && strings.HasPrefix(fs.Stack, "main") {
			foundMain = true
		}
	}
	if !foundMain {
		t.Errorf("no exec sample attributed to main: %+v", doc.Stacks)
	}
}

// TestSamplerDoesNotPerturbModeledResults is the sampler's core contract:
// attaching the profiler (at any interval) must leave modeled instructions,
// cycles, and the program result byte-identical.
func TestSamplerDoesNotPerturbModeledResults(t *testing.T) {
	runOnce := func(sampler *obs.Sampler, engine bool) (*VM, int64) {
		m := compile(t, sumSrc, passes.LevelTracking)
		cfg := DefaultConfig()
		cfg.MemBytes = 1 << 24
		cfg.HeapBytes = 1 << 20
		cfg.Sampler = sampler
		cfg.Closure = engine
		return run(t, m, cfg)
	}
	for _, engine := range []bool{reference, compiled} {
		base, baseRet := runOnce(nil, engine)
		for _, interval := range []uint64{1, 64, 4096} {
			v, ret := runOnce(obs.NewSampler(interval), engine)
			if ret != baseRet || v.Instrs != base.Instrs || v.Cycles != base.Cycles {
				t.Errorf("interval %d (compiled=%v) perturbed the model: ret %d/%d, instrs %d/%d, cycles %d/%d",
					interval, engine, ret, baseRet, v.Instrs, base.Instrs, v.Cycles, base.Cycles)
			}
		}
	}
}
