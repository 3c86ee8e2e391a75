// Package passes implements the CARAT compiler's middle end (paper §4.1):
// guard injection, the three CARAT-specific guard optimizations (hoisting,
// SCEV range merging, AC/DC redundant-guard elimination), allocation and
// escape tracking injection, and a set of "readily available" general
// optimizations (constant folding, DCE, CSE, LICM) used as the Figure 3(a)
// baseline.
//
// The middle end is organized like LLVM's new pass manager, minus module
// passes (nothing here needs one): every pass is function-at-a-time, every
// function carries an analysis cache (analysis.FuncAnalyses), and each
// mutating pass declares which analyses it preserves so the manager
// invalidates only what went stale. Functions are compiled concurrently over
// a bounded worker pool; output is byte-identical to sequential mode
// because no pass depends on cross-function state and synthesized value
// names use per-function counters.
package passes

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"carat/internal/analysis"
	"carat/internal/ir"
	"carat/internal/obs"
)

// Pass transforms one function at a time. RunOnFunc may be called
// concurrently for different functions; it must not touch module-level
// state or other functions (beyond reading callee signatures).
type Pass interface {
	// Name identifies the pass in statistics and logs.
	Name() string
	// RunOnFunc applies the pass to f, looking analyses up through fa and
	// recording statistics in the function's own stats.
	RunOnFunc(f *ir.Func, stats *Stats, fa *analysis.FuncAnalyses) error
	// Preserves declares the analyses this pass keeps valid; the manager
	// invalidates everything else (closed over dependencies) after the
	// pass runs on a function.
	Preserves() analysis.Preserved
}

// ModuleSetup is an optional hook for a Pass that needs serial
// module-level preparation (declaring runtime callees, say) before the
// parallel function sweep begins. Setup hooks run in pass order, before
// any function work.
type ModuleSetup interface {
	Setup(m *ir.Module) error
}

// Stats accumulates compilation statistics; the guard counters regenerate
// Table 1. The pass manager keeps one Stats per function while passes run
// and folds them into the module total (in m.Funcs order) afterwards, so
// the counters are deterministic under parallel compilation.
type Stats struct {
	// GuardsInjected is the number of guards inserted by guard injection,
	// by kind.
	GuardsInjected int
	LoadGuards     int
	StoreGuards    int
	CallGuards     int

	// Guard optimization accounting. Each originally injected guard is
	// attributed to at most one optimization, mirroring Table 1's columns.
	Hoisted   int // Opt 1: moved to a preheader
	Merged    int // Opt 2: folded into a range guard
	Removed   int // Opt 3: eliminated as redundant
	RangeNew  int // range guards created by Opt 2
	Untouched int // computed by FinishGuardStats

	// GuardsRemaining is the static guard count after all optimizations.
	GuardsRemaining int

	// Tracking instrumentation counts.
	AllocCallbacks  int
	FreeCallbacks   int
	EscapeCallbacks int

	// General optimization counts.
	Folded    int
	DCEd      int
	CSEd      int
	LICMMoved int

	// attributed tracks which guards have already been credited to one of
	// the optimizations, so a guard that is hoisted and later merged or
	// removed counts once (Table 1 attributes each guard to one column).
	// Guards are function-local, so the set (by Instr.ID) is scoped to one
	// function's Stats and dies with it; it never enters the merged module
	// totals.
	attributed analysis.Bits
}

// Attribute credits guard g to an optimization, returning false when the
// guard was already credited (the caller must then not bump its counter).
func (s *Stats) Attribute(g *ir.Instr) bool {
	if s.attributed.Has(int(g.ID)) {
		return false
	}
	s.attributed = s.attributed.With(int(g.ID))
	return true
}

// Merge folds one function's statistics into s. Only the integer counters
// transfer; the attribution set stays with the per-function value.
func (s *Stats) Merge(o *Stats) {
	s.GuardsInjected += o.GuardsInjected
	s.LoadGuards += o.LoadGuards
	s.StoreGuards += o.StoreGuards
	s.CallGuards += o.CallGuards
	s.Hoisted += o.Hoisted
	s.Merged += o.Merged
	s.Removed += o.Removed
	s.RangeNew += o.RangeNew
	s.AllocCallbacks += o.AllocCallbacks
	s.FreeCallbacks += o.FreeCallbacks
	s.EscapeCallbacks += o.EscapeCallbacks
	s.Folded += o.Folded
	s.DCEd += o.DCEd
	s.CSEd += o.CSEd
	s.LICMMoved += o.LICMMoved
}

// FinishGuardStats derives the Table 1 row fields after all passes ran.
func (s *Stats) FinishGuardStats(m *ir.Module) {
	remaining := 0
	for _, f := range m.Funcs {
		f.ForEachInstr(func(in *ir.Instr) {
			if in.Op == ir.OpGuard {
				remaining++
			}
		})
	}
	s.GuardsRemaining = remaining
	s.Untouched = s.GuardsInjected - s.Hoisted - s.Merged - s.Removed
	if s.Untouched < 0 {
		s.Untouched = 0
	}
}

// Fraction helpers for Table 1, all relative to the injected guard count.

// FracRemaining returns GuardsRemaining / GuardsInjected ("Opt. Guards").
func (s *Stats) FracRemaining() float64 { return s.frac(s.GuardsRemaining) }

// FracUntouched returns the fraction of guards untouched by any opt.
func (s *Stats) FracUntouched() float64 { return s.frac(s.Untouched) }

// FracHoisted returns the fraction of guards optimized by hoisting (Opt 1).
func (s *Stats) FracHoisted() float64 { return s.frac(s.Hoisted) }

// FracMerged returns the fraction optimized by scalar evolution (Opt 2).
func (s *Stats) FracMerged() float64 { return s.frac(s.Merged) }

// FracRemoved returns the fraction eliminated as redundant (Opt 3).
func (s *Stats) FracRemoved() float64 { return s.frac(s.Removed) }

func (s *Stats) frac(n int) float64 {
	if s.GuardsInjected == 0 {
		return 0
	}
	return float64(n) / float64(s.GuardsInjected)
}

// PassManager runs an ordered list of passes over a module: each function
// goes through the whole list on its own, functions spread over a bounded
// worker pool. A function keeps one analysis cache and one Stats from the
// first pass to the last, so an analysis computed by Opt 1 and preserved
// through Opt 2 is a cache hit, and guard attribution spans the pipeline.
type PassManager struct {
	Passes []Pass
	// Stats holds the module totals after Run: per-function statistics
	// folded in m.Funcs order.
	Stats Stats
	// Workers bounds how many functions are transformed concurrently.
	// 0 means GOMAXPROCS; 1 compiles sequentially. Output is
	// byte-identical across worker counts.
	Workers int

	// Obs, when non-nil, receives the carat.passes.* counters after Run.
	Obs *obs.Registry

	cache analysis.CacheStats
}

// funcState is one function's slice of the compilation: its statistics and
// the first error a pass produced for it.
type funcState struct {
	f     *ir.Func
	stats Stats
	err   error
}

// Run applies every pass in order. The module is verified where trust
// changes hands: on the way in — the analyses walk GEP types and phi edges on
// the strength of ir.Verify's rules, and a front end (ir.Parse) may hand over
// a module nobody checked — and on the way out, before anything is counted,
// so no caller is ever handed a module to sign or load that the verifier has
// not seen in its final form. Between the two, a pass is trusted to keep a
// function well-formed; a caratdebug build checks that after every pass (see
// debug_on.go) and names the pass that broke it.
func (pm *PassManager) Run(m *ir.Module) error {
	start := time.Now()
	if err := m.Verify(); err != nil {
		return fmt.Errorf("passes: %w", err)
	}
	// Serial module preparation, in pass order, before any function work.
	for _, p := range pm.Passes {
		if s, ok := p.(ModuleSetup); ok {
			if err := s.Setup(m); err != nil {
				return fmt.Errorf("passes: %s: %w", p.Name(), err)
			}
		}
	}
	work := make([]funcState, 0, len(m.Funcs))
	for _, f := range m.Funcs {
		if !f.IsDecl() {
			work = append(work, funcState{f: f})
		}
	}
	pm.sweep(work)
	// Errors are reported for the first failing function in m.Funcs order.
	for i := range work {
		if err := work[i].err; err != nil {
			return err
		}
	}
	if err := m.Verify(); err != nil {
		return fmt.Errorf("passes: %w", err)
	}
	// Deterministic fold: per-function stats merge in m.Funcs order.
	for i := range work {
		pm.Stats.Merge(&work[i].stats)
	}
	pm.Stats.FinishGuardStats(m)
	pm.publish(time.Since(start))
	return nil
}

// runFunc takes one function through every pass: run, invalidate what the
// pass does not preserve, and in a caratdebug build verify.
func (pm *PassManager) runFunc(st *funcState) error {
	fa := analysis.NewFuncAnalyses(st.f, &pm.cache)
	for _, p := range pm.Passes {
		if err := p.RunOnFunc(st.f, &st.stats, fa); err != nil {
			return fmt.Errorf("passes: %s: @%s: %w", p.Name(), st.f.Name, err)
		}
		fa.Invalidate(p.Preserves())
		if debugVerify {
			if err := ir.VerifyFunc(st.f); err != nil {
				return fmt.Errorf("passes: after %s: %w", p.Name(), err)
			}
		}
	}
	return nil
}

// sweep runs runFunc over work, in parallel when Workers allows, leaving
// each function's error in its state.
func (pm *PassManager) sweep(work []funcState) {
	workers := pm.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(work) {
		workers = len(work)
	}
	if workers <= 1 {
		for i := range work {
			if work[i].err = pm.runFunc(&work[i]); work[i].err != nil {
				return
			}
		}
		return
	}
	jobs := make(chan *funcState)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st := range jobs {
				st.err = pm.runFunc(st)
			}
		}()
	}
	for i := range work {
		jobs <- &work[i]
	}
	close(jobs)
	wg.Wait()
}

// AnalysisStats returns the analysis-cache counters accumulated so far.
func (pm *PassManager) AnalysisStats() analysis.CacheSnapshot { return pm.cache.Snapshot() }

// publish adds this module's compile-time statistics to the registry.
// Counters accumulate across modules sharing a registry (a bench sweep).
func (pm *PassManager) publish(wall time.Duration) {
	if pm.Obs == nil {
		return
	}
	add := func(name string, v int) {
		if v > 0 {
			pm.Obs.Counter("carat.passes." + name).Add(uint64(v))
		}
	}
	add("guards_injected", pm.Stats.GuardsInjected)
	add("guards_remaining", pm.Stats.GuardsRemaining)
	add("guards_hoisted", pm.Stats.Hoisted)
	add("guards_merged", pm.Stats.Merged)
	add("guards_removed", pm.Stats.Removed)
	add("alloc_callbacks", pm.Stats.AllocCallbacks)
	add("free_callbacks", pm.Stats.FreeCallbacks)
	add("escape_callbacks", pm.Stats.EscapeCallbacks)
	cs := pm.cache.Snapshot()
	pm.Obs.Counter("carat.passes.analysis.hits").Add(cs.Hits)
	pm.Obs.Counter("carat.passes.analysis.misses").Add(cs.Misses)
	pm.Obs.Counter("carat.passes.analysis.invalidations").Add(cs.Invalidations)
	pm.Obs.Counter("carat.passes.analysis.recomputes").Add(cs.Recomputes)
	pm.Obs.Counter("carat.passes.compile_wall_ns").Add(uint64(wall.Nanoseconds()))
}

// Level selects how much of the CARAT pipeline to run.
type Level int

// Pipeline levels.
const (
	// LevelNone runs only general optimizations (the uninstrumented
	// baseline of Figures 3, 6, 7, 9).
	LevelNone Level = iota
	// LevelGuardsOnly adds guard injection with general optimizations
	// only (Figure 3a).
	LevelGuardsOnly
	// LevelGuardsOpt adds the CARAT-specific guard optimizations
	// (Figure 3b, Table 1).
	LevelGuardsOpt
	// LevelTracking is guards + optimizations + allocation/escape
	// tracking: the full CARAT build (Figures 5-7, 9; Tables 2-3).
	LevelTracking
	// LevelTrackingOnly is tracking without guards, used to isolate
	// tracking overhead exactly as Figure 7 does.
	LevelTrackingOnly
)

// Build returns the standard pass manager for a level.
func Build(level Level) *PassManager {
	p := &PassManager{}
	add := func(ps ...Pass) { p.Passes = append(p.Passes, ps...) }
	add(&ConstFold{}, &CSE{}, &LICM{}, &DCE{})
	switch level {
	case LevelNone:
	case LevelGuardsOnly:
		add(&GuardInject{})
	case LevelGuardsOpt:
		add(&GuardInject{}, &HoistGuards{}, &MergeGuards{}, &RedundantGuards{})
	case LevelTracking:
		add(&GuardInject{}, &HoistGuards{}, &MergeGuards{}, &RedundantGuards{}, &TrackingInject{})
	case LevelTrackingOnly:
		add(&TrackingInject{})
	}
	return p
}
