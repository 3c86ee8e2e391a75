// Command benchexec runs the execution-engine microbenchmark (the reference
// interpreter vs the compiled engine, with a telemetry-attached compiled
// leg) and writes BENCH_exec.json (schema carat.bench.exec v4).
//
// It enforces three gates:
//
//   - the compiled engine must reach -min-speedup-closure over the reference
//     interpreter (default 8.0x: a floor only a broken engine misses — the
//     deleted predecode tiers measured 3.9-6.4x — not a sensitive gate; on a
//     busy 2-vCPU box the true ratio reads 9.7-13.6x run to run),
//   - the compiled+telemetry leg (cycle sampler plus a listening /metrics
//     server) must not lose more than -max-telemetry-overhead percent of
//     compiled-engine throughput (default 5%), and
//   - when -baseline names a committed reference document, the measured
//     speedup must not regress more than -regress (default 20%) below it:
//     the sensitive gate. The baseline is the median of >= 5 runs.
//     Speedup ratios, not absolute wall times, are compared: ratios are
//     stable across host machines, wall times are not.
//
// With -scale it instead runs the multi-core scaling benchmark (N
// concurrent processes over one shared machine at GOMAXPROCS={1,2,8},
// plus injected-abort legs) and writes BENCH_scale.json (schema
// carat.bench.scale v1), gating:
//
//   - per-process determinism: digests byte-identical across every
//     GOMAXPROCS and under injected move aborts (hard failure inside the
//     bench itself — unconditional, host-independent),
//   - aggregate 8-vs-1 speedup against -min-scale; 0 (the default) picks
//     a core-scaled floor: 3.0x with >=8 host cores (the ISSUE gate),
//     degrading on smaller hosts that physically cannot show 8-way
//     parallelism, and
//   - no >-regress regression of the speedup vs -baseline, compared only
//     when the baseline was recorded on a host with the same core class.
//
// Usage:
//
//	go run ./scripts/benchexec -out BENCH_exec.json -baseline BENCH_exec.baseline.json
//	go run ./scripts/benchexec -scale -out BENCH_scale.json -baseline BENCH_scale.baseline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"carat/internal/bench"
)

func main() {
	var (
		out               = flag.String("out", "BENCH_exec.json", "output path ('-' for stdout)")
		baseline          = flag.String("baseline", "", "committed reference document to gate regressions against")
		iters             = flag.Int("iters", 60, "outer-loop trip count of the bench kernel")
		reps              = flag.Int("reps", 3, "repetitions per engine (best wall time kept)")
		minSpeedupClosure = flag.Float64("min-speedup-closure", 8.0,
			"required compiled-engine speedup over the reference interpreter")
		regress    = flag.Float64("regress", 0.20, "allowed fractional speedup regression vs -baseline")
		maxTeleOvh = flag.Float64("max-telemetry-overhead", 5.0,
			"allowed compiled-engine throughput loss (percent) with sampling and -http telemetry enabled")
		scale      = flag.Bool("scale", false, "run the multi-core scaling bench instead of the engine matrix")
		scaleProcs = flag.Int("procs", 8, "concurrent processes per scaling leg (with -scale)")
		scaleIters = flag.Int("scale-iters", 40, "outer-loop trip count per process (with -scale)")
		scaleReps  = flag.Int("scale-reps", 3, "repetitions per scaling leg (with -scale)")
		minScale   = flag.Float64("min-scale", 0,
			"required aggregate 8-vs-1 speedup; 0 = core-scaled floor (with -scale)")
	)
	flag.Parse()

	if *scale {
		runScale(*out, *baseline, *scaleProcs, *scaleIters, *scaleReps, *minScale, *regress)
		return
	}

	doc, err := bench.RunExecBench(*iters, *reps)
	if err != nil {
		fatal(err)
	}

	if err := writeDoc(*out, doc.WriteJSON); err != nil {
		fatal(err)
	}

	for _, e := range doc.Engines {
		fmt.Fprintf(os.Stderr, "benchexec: %-18s %8.1f ms  %8.2f Minstr/s\n",
			e.Engine, e.WallMS, e.MInstrsPerSec)
	}
	fmt.Fprintf(os.Stderr, "benchexec: compiled/reference speedup=%.2fx telemetry overhead=%.1f%%\n",
		doc.SpeedupClosure, doc.TelemetryOverheadPct)

	if doc.SpeedupClosure < *minSpeedupClosure {
		fatal(fmt.Errorf("compiled-engine speedup %.2fx below required %.2fx", doc.SpeedupClosure, *minSpeedupClosure))
	}
	if doc.TelemetryOverheadPct > *maxTeleOvh {
		fatal(fmt.Errorf("telemetry overhead %.1f%% exceeds allowed %.1f%%",
			doc.TelemetryOverheadPct, *maxTeleOvh))
	}

	if *baseline != "" {
		ref, err := readBaseline(*baseline)
		if err != nil {
			fatal(err)
		}
		if floor := ref.SpeedupClosure * (1 - *regress); doc.SpeedupClosure < floor {
			fatal(fmt.Errorf("compiled-engine speedup %.2fx regressed >%.0f%% vs committed baseline %.2fx",
				doc.SpeedupClosure, *regress*100, ref.SpeedupClosure))
		}
		fmt.Fprintf(os.Stderr, "benchexec: within %.0f%% of committed baseline (%.2fx)\n",
			*regress*100, ref.SpeedupClosure)
	}
}

// runScale runs the scaling bench and enforces its gates.
func runScale(out, baseline string, procs, iters, reps int, minScale, regress float64) {
	doc, err := bench.RunScaleBench(procs, iters, reps)
	if err != nil {
		fatal(err)
	}
	floor := minScale
	if floor == 0 {
		floor = bench.ScaleFloorFor(doc.UsableCPUs)
	}
	doc.MinSpeedupFloor = floor

	if err := writeDoc(out, doc.WriteJSON); err != nil {
		fatal(err)
	}

	for _, l := range doc.Legs {
		mode := "plain "
		if l.Aborts {
			mode = "aborts"
		}
		fmt.Fprintf(os.Stderr, "benchexec: scale GOMAXPROCS=%d %s %8.1f ms  %8.2f agg Minstr/s  (%d rollbacks)\n",
			l.GOMAXPROCS, mode, l.WallMS, l.AggMInstrsPerSec, l.Rollbacks)
	}
	fmt.Fprintf(os.Stderr, "benchexec: scale speedup 8v1=%.2fx on %d host cores (floor %.2fx), determinism ok\n",
		doc.SpeedupAt8, doc.UsableCPUs, floor)

	if doc.SpeedupAt8 < floor {
		fatal(fmt.Errorf("aggregate 8-vs-1 speedup %.2fx below required %.2fx (%d host cores)",
			doc.SpeedupAt8, floor, doc.UsableCPUs))
	}
	if baseline != "" {
		ref, err := readScaleBaseline(baseline)
		if err != nil {
			fatal(err)
		}
		// Speedup ratios are only comparable between hosts of the same
		// core class: a 1-core runner cannot be held to an 8-core record.
		if bench.ScaleFloorFor(ref.UsableCPUs) != bench.ScaleFloorFor(doc.UsableCPUs) {
			fmt.Fprintf(os.Stderr, "benchexec: scale baseline recorded on %d-core host, this host has %d cores; skipping regression gate\n",
				ref.UsableCPUs, doc.UsableCPUs)
			return
		}
		if floorRef := ref.SpeedupAt8 * (1 - regress); doc.SpeedupAt8 < floorRef {
			fatal(fmt.Errorf("scale speedup %.2fx regressed >%.0f%% vs committed baseline %.2fx",
				doc.SpeedupAt8, regress*100, ref.SpeedupAt8))
		}
		fmt.Fprintf(os.Stderr, "benchexec: within %.0f%% of committed scale baseline (%.2fx)\n",
			regress*100, ref.SpeedupAt8)
	}
}

// writeDoc writes via the given encoder to path, or stdout for "-".
func writeDoc(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func readScaleBaseline(path string) (*bench.ScaleBenchDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var doc bench.ScaleBenchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	if doc.Schema != bench.ScaleBenchSchema {
		return nil, fmt.Errorf("baseline %s: schema %q, want %q", path, doc.Schema, bench.ScaleBenchSchema)
	}
	return &doc, nil
}

func readBaseline(path string) (*bench.ExecBenchDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var doc bench.ExecBenchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	if doc.Schema != bench.ExecBenchSchema {
		return nil, fmt.Errorf("baseline %s: schema %q, want %q", path, doc.Schema, bench.ExecBenchSchema)
	}
	return &doc, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchexec:", err)
	os.Exit(1)
}
