package vm

import (
	"reflect"
	"strings"
	"testing"

	"carat/internal/obs"
	"carat/internal/passes"
	"carat/internal/runtime"
)

// samplerSrc churns the heap inside a guarded loop so every profiled
// phase — exec, guard, escape-flush — accumulates enough cycles to clear
// several sampling intervals. The block @held points to lives the whole
// run, so an allocation move always finds a heap allocation to move.
const samplerSrc = `module "samprec"
global @slot : ptr
global @held : ptr
global @a : [256 x i64]
func @malloc(%sz: i64) -> ptr
func @free(%p: ptr) -> void
func @main() -> i64 {
entry:
  %h = call ptr @malloc(i64 512)
  store ptr %h, @held
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
// counters to within one sampling interval per track — without moves, under
// page moves and under allocation moves, which are one protocol: each is
// counted, observes one "move" pause and is profiled under "move".
func TestSamplerReconcilesWithCycleCounters(t *testing.T) {
	const interval = 64
	for _, tc := range []struct {
		name string
		move func(*VM) error
	}{
		{"none", nil},
		{"page", (*VM).InjectWorstCaseMove},
		{"allocation", (*VM).InjectWorstCaseAllocationMove},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := compile(t, samplerSrc, passes.LevelTracking)
			cfg := DefaultConfig()
			cfg.MemBytes = 1 << 24
			cfg.HeapBytes = 1 << 20
			s := obs.NewSampler(interval)
			cfg.Sampler = s
			v, err := Load(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.move != nil {
				v.SetMovePolicy(500, func() error { return tc.move(v) })
			}
			if _, err := v.Run(); err != nil {
				t.Fatal(err)
			}

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
				{"move", protocol},
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

			moves := uint64(len(v.rt.MoveStats))
			if tc.move != nil && (moves == 0 || ps["move"] == 0) {
				t.Errorf("%d moves, %d move samples: want both nonzero", moves, ps["move"])
			}
			pauses := v.Obs().Histogram(runtime.PauseHist + ".move").Snapshot()
			if got := v.rt.Stats.Moves.Get(); got != moves || pauses.Count != moves || pauses.Sum != protocol {
				t.Errorf("carat.runtime.moves = %d and %d move pauses summing %d, want %d moves of %d cycles",
					got, pauses.Count, pauses.Sum, moves, protocol)
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
		})
	}
}

// TestSamplerDoesNotPerturbModeledResults is the sampler's core contract:
// attaching the profiler (at any interval) must leave modeled instructions,
// cycles, and the program result byte-identical — with and without a page
// move injected every 100 instructions. sumSrc's loops are self-loops: the
// policy moves the page under a live activation, at a head of the loop block.
func TestSamplerDoesNotPerturbModeledResults(t *testing.T) {
	const period = 100
	// runOnce returns the run's VM, result and stop reason ("" when @main
	// returned), and the instruction count at every move the policy made.
	runOnce := func(sampler *obs.Sampler, engine bool, movePeriod, maxInstrs uint64) (*VM, int64, StopReason, []uint64) {
		m := compile(t, sumSrc, passes.LevelTracking)
		cfg := DefaultConfig()
		cfg.MemBytes = 1 << 24
		cfg.HeapBytes = 1 << 20
		cfg.Sampler = sampler
		cfg.Closure = engine
		cfg.MaxInstrs = maxInstrs
		v, err := Load(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var moves []uint64
		if movePeriod > 0 {
			v.SetMovePolicy(movePeriod, func() error {
				moves = append(moves, v.Instrs)
				return v.InjectWorstCaseMove()
			})
		}
		ret, err := v.Run()
		if maxInstrs == 0 && err != nil {
			t.Fatalf("compiled=%v, moves every %d: %v", engine, movePeriod, err)
		}
		return v, ret, stopReason(err), moves
	}
	for _, movePeriod := range []uint64{0, period} {
		for _, engine := range []bool{reference, compiled} {
			base, baseRet, _, baseMoves := runOnce(nil, engine, movePeriod, 0)
			if movePeriod > 0 && len(baseMoves) < 3 {
				t.Fatalf("compiled=%v: %d moves, want at least 3", engine, len(baseMoves))
			}
			for _, interval := range []uint64{1, 64, 4096} {
				v, ret, _, moves := runOnce(obs.NewSampler(interval), engine, movePeriod, 0)
				if ret != baseRet || v.Instrs != base.Instrs || v.Cycles != base.Cycles || len(moves) != len(baseMoves) {
					t.Errorf("interval %d (compiled=%v, moves every %d) perturbed the model: ret %d/%d, instrs %d/%d, cycles %d/%d, moves %d/%d",
						interval, engine, movePeriod, ret, baseRet, v.Instrs, base.Instrs, v.Cycles, base.Cycles, len(moves), len(baseMoves))
				}
			}
		}
	}

	// Where reasons coincide, the gate's order decides. With MaxInstrs one
	// below the count at which the third move falls due, the limit, that
	// move and a sample (interval 1: always due) meet on one head of a
	// self-loop block; the limit goes first, so the third move never happens.
	_, _, _, moves := runOnce(nil, reference, period, 0)
	limit := moves[1] + period - 1
	type outcome struct {
		reason StopReason
		moves  int
		doc    *obs.ProfileDoc
	}
	var got [2]outcome
	for i, engine := range []bool{reference, compiled} {
		s := obs.NewSampler(1)
		_, _, reason, moves := runOnce(s, engine, period, limit)
		got[i] = outcome{reason, len(moves), s.Snapshot()}
		if reason != StopInstrLimit || len(moves) != 2 {
			t.Errorf("compiled=%v: stopped for %q after %d moves, want %q after 2", engine, reason, len(moves), StopInstrLimit)
		}
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("the engines order coinciding reasons differently:\nreference %+v\n compiled %+v", got[0], got[1])
	}
}
