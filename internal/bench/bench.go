// Package bench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each experiment returns a
// typed result with one row per benchmark plus summary statistics, and can
// render itself as the text table the paper prints. cmd/caratbench and the
// top-level benchmark suite both drive this package.
package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"text/tabwriter"

	"carat/internal/fault"
	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/kernel"
	"carat/internal/mmpolicy"
	"carat/internal/obs"
	"carat/internal/passes"
	"carat/internal/vm"
	"carat/internal/workload"
)

// Options configures an experiment run.
type Options struct {
	// Scale selects problem sizes (workload.ScaleTest for smoke runs,
	// ScaleSmall for paper-shaped results).
	Scale workload.Scale
	// Only, when non-empty, restricts the benchmark set by name.
	Only []string
	// MemBytes / HeapBytes configure the simulated machine.
	MemBytes  uint64
	HeapBytes uint64
	// Workers bounds how many per-workload experiment legs run
	// concurrently; 0 means GOMAXPROCS, 1 runs sequentially. Results are
	// identical across worker counts: legs are independent and fold in
	// workload order.
	Workers int
	// Obs, when non-nil, collects every VM's and pipeline's metrics in one
	// registry (counters accumulate across the sweep). Each VM or harness
	// run publishes to a private registry folded in here when it finishes
	// (see runObs), so no result reads another run's counters.
	Obs *obs.Registry
	// Trace, when non-nil, receives trace events from every VM run.
	Trace *obs.Tracer
	// PolicySink, when non-nil, receives the carat.policy document of each
	// policy-daemon experiment (defrag, tiering, policy) after it runs.
	PolicySink func(*mmpolicy.Document)
	// Fault, when non-nil, threads a seeded fault injector through the
	// policy-daemon experiments (caratbench's -faults flag).
	Fault *fault.Injector
	// Sampler, when non-nil, attaches the cycle-sampling profiler to every
	// VM run (one track each) and to the policy daemon ("policy" phase).
	Sampler *obs.Sampler
}

// DefaultOptions returns the standard configuration for scale s.
func DefaultOptions(s workload.Scale) Options {
	return Options{Scale: s, MemBytes: 1 << 28, HeapBytes: 1 << 26}
}

func (o Options) workloads() []*workload.Workload {
	all := workload.All()
	if len(o.Only) == 0 {
		return all
	}
	var out []*workload.Workload
	for _, w := range all {
		for _, n := range o.Only {
			if w.Name == n {
				out = append(out, w)
			}
		}
	}
	return out
}

// eachWorkload evaluates fn for every selected workload over a bounded
// pool (o.Workers wide) and returns the results in workload order, so a
// parallel sweep folds to exactly what a sequential one produces. A nil
// result with a nil error means fn skipped the workload; callers filter.
// The first error in workload order wins, matching sequential behaviour.
func eachWorkload[T any](o Options, fn func(*workload.Workload) (*T, error)) ([]*T, error) {
	ws := o.workloads()
	out := make([]*T, len(ws))
	errs := make([]error, len(ws))
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ws) {
		workers = len(ws)
	}
	if workers <= 1 {
		for i, w := range ws {
			out[i], errs[i] = fn(w)
			if errs[i] != nil {
				break
			}
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					out[i], errs[i] = fn(ws[i])
				}
			}()
		}
		for i := range ws {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (o Options) vmConfig(mode vm.Mode, mech guard.Mechanism) vm.Config {
	cfg := vm.DefaultConfig()
	cfg.Mode = mode
	cfg.GuardMech = mech
	cfg.MemBytes = o.MemBytes
	cfg.HeapBytes = o.HeapBytes
	cfg.Trace = o.Trace
	cfg.Sampler = o.Sampler
	return cfg
}

// runObs returns the registry one VM or harness run publishes to, and the
// function that folds it into o.Obs once the run is over. Results read
// registry-backed metrics — TLB misses, tracking bytes, pause histograms —
// so a run that published straight into the sweep's shared registry would
// report every earlier (or concurrent) run's numbers on top of its own.
func (o Options) runObs() (reg *obs.Registry, done func()) {
	if o.Obs == nil {
		return nil, func() {}
	}
	reg = obs.NewRegistry()
	return reg, func() { o.Obs.Merge(reg) }
}

// run loads m under cfg, applies tweak, and executes it to completion.
func (o Options) run(name string, m *ir.Module, cfg vm.Config, tweak func(*vm.VM)) (*vm.VM, error) {
	reg, done := o.runObs()
	defer done()
	cfg.Obs = reg
	v, err := vm.Load(m, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	if tweak != nil {
		tweak(v)
	}
	if _, err := v.Run(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	return v, nil
}

// buildAndRun compiles w at the given level and executes it.
func (o Options) buildAndRun(w *workload.Workload, lvl passes.Level, mode vm.Mode,
	mech guard.Mechanism, tweak func(*vm.VM)) (*vm.VM, *passes.Stats, error) {
	m, st, err := o.compileOnly(w, lvl)
	if err != nil {
		return nil, nil, err
	}
	v, err := o.run(w.Name, m, o.vmConfig(mode, mech), tweak)
	return v, st, err
}

// compileOnly runs the pipeline without executing (Table 1).
func (o Options) compileOnly(w *workload.Workload, lvl passes.Level) (*ir.Module, *passes.Stats, error) {
	m := w.Build(o.Scale)
	pl := passes.Build(lvl)
	pl.Obs = o.Obs
	// Workload legs are the parallel unit of a sweep; compiling each small
	// workload module with one worker avoids nested parallelism.
	pl.Workers = 1
	if err := pl.Run(m); err != nil {
		return nil, nil, fmt.Errorf("bench: %s: %w", w.Name, err)
	}
	return m, &pl.Stats, nil
}

// CPUFreqHz is the modeled clock (the paper's E5-2695v3 runs at 2.3 GHz);
// rate-based experiments (Table 2, Figure 9) convert cycles to seconds
// with it.
const CPUFreqHz = 2.3e9

// geomean returns the geometric mean of xs (ignoring non-positives).
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// harmean returns the harmonic mean of positive xs.
func harmean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += 1 / x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) / sum
}

// table writes rows through a tabwriter.
func table(w io.Writer, write func(tw *tabwriter.Writer)) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	write(tw)
	tw.Flush()
}

// pagesOf converts bytes to 4 KB pages, rounding up.
func pagesOf(bytes uint64) uint64 {
	return (bytes + kernel.PageSize - 1) / kernel.PageSize
}
