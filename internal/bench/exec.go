package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/obs"
	"carat/internal/obs/telemetry"
	"carat/internal/passes"
	"carat/internal/vm"
)

// Execution-engine microbenchmark: measures HOST throughput (modeled
// instructions retired per host second) of the VM's two engines — the
// reference interpreter and the compiled engine — plus the compiled engine
// with telemetry attached. The modeled results (instructions, cycles) are
// asserted identical across legs before any timing is reported: the compiled
// engine is a host-speed optimization only.

// ExecBenchSchema identifies the exec-bench output document.
const ExecBenchSchema = "carat.bench.exec"

// ExecBenchVersion is the current document format version. v2: every
// engine leg emits xcache_hits/xcache_misses (zero for legs without the
// cache), and the matrix gains the full+telemetry leg with its
// telemetry_overhead_pct summary. v3: the matrix gains the closure
// compilation tier (with ic_hits/ic_misses/deopts per leg and the
// speedup_closure summary), and the telemetry leg rides the closure
// engine — the tax is measured against the fastest tier. v4: the legs are
// the two engines — reference and compiled — plus compiled+telemetry; the
// per-leg predecode/xcache/closure/deopts columns and the
// speedup_predecode/speedup_full ratios went with the deleted tiers.
const ExecBenchVersion = 4

// execBenchSrc is a guard-heavy kernel: every loop iteration performs
// several guarded loads/stores over three arrays plus enough integer work
// to exercise the dispatch path. Compiled at LevelGuardsOnly so guards are
// not hoisted away — this is deliberately the worst case for software
// address translation, where the cache has the most to recover. The outer
// latch calls @mix once per outer iteration (feeding the loop bound, so it
// cannot fold away) to exercise the compiled engine's call sites without
// perturbing the inner-loop hot path.
const execBenchSrc = `module "execbench"
global @a : [4096 x i64]
global @b : [4096 x i64]
global @c : [4096 x i64]
func @mix(%x: i64) -> i64 {
entry:
  %z = xor i64 %x, %x
  %r = add i64 %z, 1
  ret i64 %r
}
func @main() -> i64 {
entry:
  br ^outer
outer:
  %o = phi i64 [0, ^entry], [%o1, ^olatch]
  br ^inner
inner:
  %i = phi i64 [0, ^outer], [%i1, ^inner]
  %acc = phi i64 [0, ^outer], [%acc2, ^inner]
  %m = and i64 %i, 4095
  %pa = gep i64, @a, %m
  %x = load i64, %pa
  %x1 = add i64 %x, %o
  %pb = gep i64, @b, %m
  store i64 %x1, %pb
  %y = load i64, %pb
  %y1 = mul i64 %y, 3
  %y2 = xor i64 %y1, %acc
  %pc = gep i64, @c, %m
  store i64 %y2, %pc
  %acc2 = add i64 %acc, %y2
  %i1 = add i64 %i, 1
  %ci = icmp slt i64 %i1, 4096
  condbr %ci, ^inner, ^olatch
olatch:
  %s = call i64 @mix(i64 %o)
  %o1 = add i64 %o, %s
  %co = icmp slt i64 %o1, %iters
  condbr %co, ^outer, ^done
done:
  %p0 = gep i64, @c, 7
  %r = load i64, %p0
  ret i64 %r
}`

// ExecBenchModule builds the exec-bench program with the given outer
// iteration count, compiled at the given pipeline level.
func ExecBenchModule(iters int, lvl passes.Level) (*ir.Module, error) {
	src := execBenchSrc
	m, err := ir.Parse(replaceIters(src, iters))
	if err != nil {
		return nil, fmt.Errorf("bench: execbench parse: %w", err)
	}
	pl := passes.Build(lvl)
	pl.Workers = 1
	if err := pl.Run(m); err != nil {
		return nil, fmt.Errorf("bench: execbench passes: %w", err)
	}
	return m, nil
}

func replaceIters(src string, iters int) string {
	out := ""
	for i := 0; i < len(src); i++ {
		if src[i] == '%' && i+6 <= len(src) && src[i:i+6] == "%iters" {
			out += fmt.Sprintf("%d", iters)
			i += 5
			continue
		}
		out += string(src[i])
	}
	return out
}

// ExecEngineResult is one leg's measurement.
type ExecEngineResult struct {
	Engine string  `json:"engine"`
	WallMS float64 `json:"wall_ms"`
	// Instrs/Cycles are modeled quantities — identical across engines by
	// construction (verified before this document is emitted).
	Instrs uint64 `json:"instrs"`
	Cycles uint64 `json:"cycles"`
	// MInstrsPerSec is modeled instructions retired per host second, in
	// millions: the host-throughput figure of merit.
	MInstrsPerSec float64 `json:"minstrs_per_sec"`
	// XCacheHits/XCacheMisses and ICHits/ICMisses are the compiled engine's
	// guard/translation-cache and call-site counters, emitted for every leg
	// (zero on the reference interpreter) so consumers see one row shape.
	XCacheHits   uint64 `json:"xcache_hits"`
	XCacheMisses uint64 `json:"xcache_misses"`
	ICHits       uint64 `json:"ic_hits"`
	ICMisses     uint64 `json:"ic_misses"`
	// Telemetry marks the leg that ran with the cycle-sampling profiler
	// attached and a live HTTP telemetry server listening.
	Telemetry bool `json:"telemetry"`
}

// ExecBenchDoc is the machine-readable exec-bench output (BENCH_exec.json).
type ExecBenchDoc struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Tool    string `json:"tool"`
	// Iters is the outer-loop trip count the kernel ran with.
	Iters   int                `json:"iters"`
	Engines []ExecEngineResult `json:"engines"`
	// SpeedupClosure is the reference interpreter's wall time over the
	// compiled engine's. The ratio is host-machine dependent in absolute
	// terms but stable enough across runs on one machine to gate
	// regressions.
	SpeedupClosure float64 `json:"speedup_closure"`
	// TelemetryOverheadPct is how much compiled-engine throughput drops when
	// the sampler and HTTP telemetry server are enabled. It comes from a
	// dedicated paired measurement (see measureTelemetryOverhead): ABBA
	// blocks of back-to-back plain/telemetry runs whose symmetric order
	// and sum ratios cancel host drift and load spikes, retried on a
	// noisy host until a quiet measurement window is found. Negative
	// values (telemetry leg faster, i.e. the difference is below the
	// noise floor) are kept as-is. The CI bench job gates this at 5%.
	TelemetryOverheadPct float64 `json:"telemetry_overhead_pct"`
}

// execEngine is one leg of the measurement.
type execEngine struct {
	name     string
	compiled bool // vm.Config.Closure
	// telemetry attaches the cycle-sampling profiler and starts a live
	// HTTP telemetry server for the duration of the leg, measuring the
	// observability tax on the engine that ships.
	telemetry bool
}

// The legs, slowest first.
var (
	execReference = execEngine{name: "reference"}
	execCompiled  = execEngine{name: "compiled", compiled: true}
	execTelemetry = execEngine{name: "compiled+telemetry", compiled: true, telemetry: true}
	execEngines   = []execEngine{execReference, execCompiled, execTelemetry}
)

// runExecOnce executes the module under one engine configuration and
// returns the VM (for modeled stats) plus host wall time. reg and sampler
// are nil for non-telemetry legs.
func runExecOnce(m *ir.Module, eng execEngine, reg *obs.Registry, sampler *obs.Sampler) (*vm.VM, time.Duration, error) {
	cfg := vm.DefaultConfig()
	cfg.MemBytes = 1 << 24
	cfg.HeapBytes = 1 << 20
	cfg.GuardMech = guard.MechBinarySearch
	cfg.Closure = eng.compiled
	cfg.Obs = reg
	cfg.Sampler = sampler
	v, err := vm.Load(m, cfg)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if _, err := v.Run(); err != nil {
		return nil, 0, err
	}
	return v, time.Since(start), nil
}

// RunExecBench measures every leg over the same program and returns the
// document. reps > 1 keeps the best (minimum) wall time per
// engine, the standard cure for scheduler noise in microbenchmarks. Reps
// run rep-major (every engine once per round, not every rep of one engine
// in a block) so a host load spike or thermal drift hits all legs alike.
// The telemetry-overhead figure does not reuse these walls: it gets its
// own noise-hardened paired measurement (measureTelemetryOverhead).
//
// The compiled+telemetry leg runs with a fresh registry, a cycle sampler,
// and a live telemetry HTTP server on a loopback port. It passes the same
// modeled-result invariance check as every other leg — the proof that
// sampling never perturbs modeled execution.
func RunExecBench(iters, reps int) (*ExecBenchDoc, error) {
	if iters <= 0 {
		iters = 60
	}
	if reps <= 0 {
		reps = 3
	}
	doc := &ExecBenchDoc{Schema: ExecBenchSchema, Version: ExecBenchVersion, Tool: "benchexec", Iters: iters}

	teleReg := obs.NewRegistry()
	teleSampler := obs.NewSampler(0)
	tele := &telemetry.Server{Registry: teleReg, Sampler: teleSampler}
	if _, err := tele.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("bench: execbench telemetry: %w", err)
	}
	tele.SetReady(true)
	defer tele.Close()

	bests := make([]time.Duration, len(execEngines))
	bestVMs := make([]*vm.VM, len(execEngines))
	for r := 0; r < reps; r++ {
		for i, eng := range execEngines {
			m, err := ExecBenchModule(iters, passes.LevelGuardsOnly)
			if err != nil {
				return nil, err
			}
			var reg *obs.Registry
			var sampler *obs.Sampler
			if eng.telemetry {
				reg, sampler = teleReg, teleSampler
			}
			v, wall, err := runExecOnce(m, eng, reg, sampler)
			if err != nil {
				return nil, fmt.Errorf("bench: execbench %s: %w", eng.name, err)
			}
			if bestVMs[i] == nil || wall < bests[i] {
				bests[i], bestVMs[i] = wall, v
			}
		}
	}

	// Modeled results must be engine-invariant.
	refInstrs, refCycles := bestVMs[0].Instrs, bestVMs[0].Cycles
	for i, eng := range execEngines {
		if bestVMs[i].Instrs != refInstrs || bestVMs[i].Cycles != refCycles {
			return nil, fmt.Errorf("bench: engine %s changed modeled results: instrs %d (want %d), cycles %d (want %d)",
				eng.name, bestVMs[i].Instrs, refInstrs, bestVMs[i].Cycles, refCycles)
		}
		res := ExecEngineResult{
			Engine:        eng.name,
			Telemetry:     eng.telemetry,
			WallMS:        float64(bests[i].Nanoseconds()) / 1e6,
			Instrs:        bestVMs[i].Instrs,
			Cycles:        bestVMs[i].Cycles,
			MInstrsPerSec: float64(bestVMs[i].Instrs) / bests[i].Seconds() / 1e6,
		}
		res.XCacheHits, res.XCacheMisses, _ = bestVMs[i].XCacheStats()
		_, _, res.ICHits, res.ICMisses = bestVMs[i].ClosureStats()
		doc.Engines = append(doc.Engines, res)
	}
	doc.SpeedupClosure = doc.Engines[0].WallMS / doc.Engines[1].WallMS
	ovh, err := measureTelemetryOverhead(iters, teleReg, teleSampler)
	if err != nil {
		return nil, err
	}
	doc.TelemetryOverheadPct = ovh
	return doc, nil
}

// Telemetry-overhead measurement parameters. One "set" is
// overheadBlocks ABBA blocks: plain, telemetry, telemetry, plain — the
// symmetric order cancels linear host drift across the block, and the
// within-block sum ratio cancels any load spike that spans the block.
// The set estimate is the midsummary (mean of the two middle block
// ratios), which discards one spike-hit block on each side. A sustained
// host burst can still poison an entire set, so up to overheadMaxSets
// sets run with a short pause in between and the MINIMUM set estimate
// wins: contention only ever inflates a paired ratio, never deflates it,
// so the quietest set is the closest measurement of the true tax. A set
// at or below overheadQuietPct is accepted immediately — the host was
// demonstrably quiet, no retry needed.
const (
	overheadBlocks   = 4
	overheadMaxSets  = 5
	overheadQuietPct = 2.5
)

// measureTelemetryOverhead measures the percent wall-time slowdown of the
// compiled engine when the cycle sampler (and shared registry behind the live
// HTTP server) is attached. Negative values mean the difference was below
// the host's noise floor.
func measureTelemetryOverhead(iters int, reg *obs.Registry, sampler *obs.Sampler) (float64, error) {
	run := func(eng execEngine, r *obs.Registry, sm *obs.Sampler) (time.Duration, error) {
		m, err := ExecBenchModule(iters, passes.LevelGuardsOnly)
		if err != nil {
			return 0, err
		}
		_, w, err := runExecOnce(m, eng, r, sm)
		if err != nil {
			return 0, fmt.Errorf("bench: telemetry overhead %s: %w", eng.name, err)
		}
		return w, nil
	}
	plain, tele := execCompiled, execTelemetry
	set := func() (float64, error) {
		ratios := make([]float64, 0, overheadBlocks)
		for b := 0; b < overheadBlocks; b++ {
			a1, err := run(plain, nil, nil)
			if err != nil {
				return 0, err
			}
			b1, err := run(tele, reg, sampler)
			if err != nil {
				return 0, err
			}
			b2, err := run(tele, reg, sampler)
			if err != nil {
				return 0, err
			}
			a2, err := run(plain, nil, nil)
			if err != nil {
				return 0, err
			}
			ratios = append(ratios, float64(b1+b2)/float64(a1+a2))
		}
		sort.Float64s(ratios)
		mid := (ratios[overheadBlocks/2-1] + ratios[overheadBlocks/2]) / 2
		return (mid - 1) * 100, nil
	}
	best, err := set()
	if err != nil {
		return 0, err
	}
	for i := 1; i < overheadMaxSets && best > overheadQuietPct; i++ {
		time.Sleep(500 * time.Millisecond)
		e, err := set()
		if err != nil {
			return 0, err
		}
		if e < best {
			best = e
		}
	}
	return best, nil
}

// WriteJSON emits the document to w.
func (d *ExecBenchDoc) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
