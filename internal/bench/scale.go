package bench

import (
	"encoding/json"
	"fmt"
	"io"
	hostrt "runtime"
	"time"

	"carat/internal/fault"
	"carat/internal/guard"
	"carat/internal/passes"
	"carat/internal/vm"
)

// Multi-core scaling benchmark: N processes of one simulated machine run
// truly concurrently (vm.Group) over the shared physical memory, each
// with a self-move policy so the ragged-safepoint protocol is exercised
// under load — and the aggregate host throughput is measured at several
// GOMAXPROCS settings. Two properties are checked: per-process model
// results (the digest folds cycles, outputs, and the process's arena
// bytes) are byte-identical at every GOMAXPROCS and under injected move
// aborts, and aggregate throughput scales with cores.

// ScaleBenchSchema identifies the scale-bench output document.
const ScaleBenchSchema = "carat.bench.scale"

// ScaleBenchVersion is the current document format version.
const ScaleBenchVersion = 1

// scaleArenaPages sizes each process's private arena (4 MB): code,
// globals, stack, heap, and move headroom for the exec-bench kernel.
const scaleArenaPages = 1024

// ScaleLegResult is one (GOMAXPROCS, fault-injection) configuration's
// measurement over the whole process group.
type ScaleLegResult struct {
	GOMAXPROCS int  `json:"gomaxprocs"`
	Aborts     bool `json:"aborts"` // injected move aborts + patch failures
	// WallMS is the host wall time of the whole group run (best of reps).
	WallMS float64 `json:"wall_ms"`
	// AggInstrs is the modeled instruction total across all processes.
	AggInstrs uint64 `json:"agg_instrs"`
	// AggMInstrsPerSec is aggregate modeled instructions per host second,
	// in millions: the scaling figure of merit.
	AggMInstrsPerSec float64 `json:"agg_minstrs_per_sec"`
	// Digests are the per-process result digests in process order. Legs of
	// the same family (same Aborts flag) must agree element-wise.
	Digests []uint64 `json:"digests"`
	// Rollbacks counts move rollbacks across the group (abort legs only).
	Rollbacks uint64 `json:"rollbacks"`
}

// ScaleBenchDoc is the machine-readable scale-bench output
// (BENCH_scale.json).
type ScaleBenchDoc struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Tool    string `json:"tool"`
	// Procs is the number of concurrent processes per leg; Iters the
	// exec-bench outer trip count of the FIRST process (process i runs
	// Iters+i so every digest is distinct — a cross-process mixup cannot
	// alias).
	Procs int `json:"procs"`
	Iters int `json:"iters"`
	// UsableCPUs is the host's core count when the bench ran. Scaling
	// floors are a function of it: a 1-core host cannot demonstrate an
	// 8-core speedup, but it can still prove determinism.
	UsableCPUs int              `json:"usable_cpus"`
	Legs       []ScaleLegResult `json:"legs"`
	// SpeedupAt8 is plain-leg aggregate throughput at GOMAXPROCS=8 over
	// GOMAXPROCS=1.
	SpeedupAt8 float64 `json:"speedup_8v1"`
	// DeterminismOK records that per-process digests were element-wise
	// identical across every GOMAXPROCS within each leg family. RunScaleBench
	// fails hard when they are not; the field makes the contract visible in
	// the artifact.
	DeterminismOK bool `json:"determinism_ok"`
	// MinSpeedupFloor is the floor the gating tool enforced for this run
	// (core-scaled; see scripts/benchexec). Recorded for the artifact.
	MinSpeedupFloor float64 `json:"min_speedup_floor"`
}

// scaleLegSpecs is the fixed leg matrix: plain legs sweep GOMAXPROCS for
// the scaling curve; abort legs re-run the determinism check with
// injected move aborts and patch failures at two core counts.
var scaleLegSpecs = []struct {
	gomaxprocs int
	aborts     bool
}{
	{1, false},
	{2, false},
	{8, false},
	{1, true},
	{8, true},
}

// buildScaleGroup assembles the process group for one leg run.
func buildScaleGroup(procs, iters int, aborts bool) (*vm.Group, error) {
	g := vm.NewGroup(1 << 26)
	for i := 0; i < procs; i++ {
		m, err := ExecBenchModule(iters+i, passes.LevelGuardsOnly)
		if err != nil {
			return nil, err
		}
		cfg := vm.DefaultConfig()
		cfg.HeapBytes = 1 << 20
		cfg.GuardMech = guard.MechBinarySearch
		if aborts {
			inj := fault.New(int64(1000+i), nil)
			inj.SetRate(fault.MoveAbort, 0.5)
			inj.SetRate(fault.PatchFail, 0.5)
			cfg.Fault = inj
		}
		v, err := g.Add(fmt.Sprintf("p%d", i), m, cfg, scaleArenaPages)
		if err != nil {
			return nil, err
		}
		// Self-moves paced by the process's own instruction counter: the
		// move pattern (and with it the ragged-safepoint traffic) is part
		// of the deterministic per-process model, never wall-clock timed.
		period := uint64(200_000 + i*17_000)
		v.SetMovePolicy(period, func() error {
			err := v.InjectWorstCaseMove()
			if fault.Injected(err) {
				return nil // rolled back; the program must not notice
			}
			return err
		})
	}
	return g, nil
}

// runScaleLeg runs one leg once and returns wall time plus the results.
func runScaleLeg(procs, iters, gomaxprocs int, aborts bool) (time.Duration, []vm.GroupResult, uint64, error) {
	prev := hostrt.GOMAXPROCS(gomaxprocs)
	defer hostrt.GOMAXPROCS(prev)
	g, err := buildScaleGroup(procs, iters, aborts)
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	res := g.Run()
	wall := time.Since(start)
	for _, r := range res {
		if r.Err != nil {
			return 0, nil, 0, fmt.Errorf("process %s: %w", r.Name, r.Err)
		}
	}
	if err := g.Close(); err != nil {
		return 0, nil, 0, err
	}
	rollbacks := g.Kernel().Obs.Counter("carat.runtime.move_rollbacks").Get()
	return wall, res, rollbacks, nil
}

// RunScaleBench measures every leg and returns the document. reps > 1
// keeps the best (minimum) wall per leg, rep-major so host noise hits all
// legs alike. Per-process digests are checked element-wise across every
// leg of a family (plain and aborts) before any timing is reported — a
// mismatch is a hard error, not a summary field.
func RunScaleBench(procs, iters, reps int) (*ScaleBenchDoc, error) {
	if procs <= 0 {
		procs = 8
	}
	if iters <= 0 {
		iters = 40
	}
	if reps <= 0 {
		reps = 3
	}
	doc := &ScaleBenchDoc{
		Schema:     ScaleBenchSchema,
		Version:    ScaleBenchVersion,
		Tool:       "benchexec",
		Procs:      procs,
		Iters:      iters,
		UsableCPUs: hostrt.NumCPU(),
	}

	bests := make([]time.Duration, len(scaleLegSpecs))
	digests := make([][]uint64, len(scaleLegSpecs))
	aggInstrs := make([]uint64, len(scaleLegSpecs))
	rollbacks := make([]uint64, len(scaleLegSpecs))
	for r := 0; r < reps; r++ {
		for i, spec := range scaleLegSpecs {
			wall, res, rb, err := runScaleLeg(procs, iters, spec.gomaxprocs, spec.aborts)
			if err != nil {
				return nil, fmt.Errorf("bench: scale GOMAXPROCS=%d aborts=%v: %w",
					spec.gomaxprocs, spec.aborts, err)
			}
			var agg uint64
			ds := make([]uint64, len(res))
			for j, pr := range res {
				agg += pr.Instrs
				ds[j] = pr.Digest
			}
			if digests[i] == nil {
				digests[i], aggInstrs[i], rollbacks[i] = ds, agg, rb
				bests[i] = wall
			} else {
				// Reps of one leg must reproduce the digests exactly.
				for j := range ds {
					if ds[j] != digests[i][j] {
						return nil, fmt.Errorf("bench: scale GOMAXPROCS=%d aborts=%v rep %d: process %d digest %#x, earlier rep had %#x",
							spec.gomaxprocs, spec.aborts, r, j, ds[j], digests[i][j])
					}
				}
				if wall < bests[i] {
					bests[i] = wall
				}
			}
		}
	}

	// Cross-leg determinism within each family: the per-process model is a
	// function of the process alone, never of GOMAXPROCS or sibling timing.
	for i, spec := range scaleLegSpecs {
		ref := 0
		if spec.aborts {
			ref = 3 // first abort leg
		}
		for j := range digests[i] {
			if digests[i][j] != digests[ref][j] {
				return nil, fmt.Errorf("bench: scale determinism violation: process %d digest %#x at GOMAXPROCS=%d (aborts=%v), want %#x from GOMAXPROCS=%d",
					j, digests[i][j], spec.gomaxprocs, spec.aborts, digests[ref][j], scaleLegSpecs[ref].gomaxprocs)
			}
		}
	}
	doc.DeterminismOK = true

	for i, spec := range scaleLegSpecs {
		doc.Legs = append(doc.Legs, ScaleLegResult{
			GOMAXPROCS:       spec.gomaxprocs,
			Aborts:           spec.aborts,
			WallMS:           float64(bests[i].Nanoseconds()) / 1e6,
			AggInstrs:        aggInstrs[i],
			AggMInstrsPerSec: float64(aggInstrs[i]) / bests[i].Seconds() / 1e6,
			Digests:          digests[i],
			Rollbacks:        rollbacks[i],
		})
	}
	doc.SpeedupAt8 = doc.Legs[2].AggMInstrsPerSec / doc.Legs[0].AggMInstrsPerSec
	return doc, nil
}

// ScaleFloorFor returns the aggregate-speedup floor appropriate for a
// host with the given core count: the strict ISSUE gate (3x at 8 procs)
// when 8 cores are actually available, degrading gracefully below — a
// 1-core host can only prove that the goroutine runner is not SLOWER than
// time-sharing (plus determinism, which is gated unconditionally).
func ScaleFloorFor(cpus int) float64 {
	switch {
	case cpus >= 8:
		return 3.0
	case cpus >= 4:
		return 1.8
	case cpus >= 2:
		return 1.2
	default:
		return 0.7
	}
}

// WriteJSON emits the document to w.
func (d *ScaleBenchDoc) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
