package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"carat/internal/guard"
	"carat/internal/passes"
	"carat/internal/vm"
	"carat/internal/workload"
)

// Ablations of the design choices DESIGN.md calls out, realizing the
// paper's §6 future-work directions so they can be measured against the
// baseline design:
//
//   - allocation-granularity moves vs page-granularity moves (the paper
//     predicts a ~95% cost reduction from eliminating the page-semantics
//     impedance mismatch);
//   - the single-region "dark capsule" layout vs the multi-region layout
//     (the optimal case for guards, §3).

// AblAllocRow compares per-move prototype costs for one benchmark.
type AblAllocRow struct {
	Name       string  `json:"name"`
	PageCyc    float64 `json:"page_cycles"`  // avg total cycles per page-granularity move
	AllocCyc   float64 `json:"alloc_cycles"` // avg total cycles per allocation-granularity move
	Reduction  float64 `json:"reduction"`    // 1 - AllocCyc/PageCyc
	PageMoves  int     `json:"page_moves"`
	AllocMoves int     `json:"alloc_moves"`
	PageProto  float64 `json:"page_proto"` // prototype (non-data-movement) cycles
	AllocProto float64 `json:"alloc_proto"`
}

// AblAllocResult is the allocation-granularity ablation.
type AblAllocResult struct {
	Rows         []AblAllocRow `json:"rows"`
	GeoReduction float64       `json:"geomean_reduction"`
}

// AblationAllocGranularity measures both move engines on heap-allocating
// benchmarks.
func AblationAllocGranularity(o Options) (*AblAllocResult, error) {
	rows, err := eachWorkload(o, func(w *workload.Workload) (*AblAllocRow, error) {
		var pageVM, allocVM *vm.VM
		_, _, err := o.buildAndRun(w, passes.LevelTracking, vm.ModeCARAT, guard.MechRange,
			func(v *vm.VM) {
				pageVM = v
				v.SetMovePolicy(moveEveryInstrs(o), func() error { return v.InjectWorstCaseMove() })
			})
		if err != nil {
			return nil, err
		}
		_, _, err = o.buildAndRun(w, passes.LevelTracking, vm.ModeCARAT, guard.MechRange,
			func(v *vm.VM) {
				allocVM = v
				v.SetMovePolicy(moveEveryInstrs(o), func() error {
					// Benchmarks without heap allocations cannot play.
					_ = v.InjectWorstCaseAllocationMove()
					return nil
				})
			})
		if err != nil {
			return nil, err
		}
		ps, as := pageVM.Runtime().MoveStats, allocVM.Runtime().MoveStats
		if len(ps) == 0 || len(as) == 0 {
			return nil, nil // nothing movable at both granularities: skip
		}
		row := &AblAllocRow{Name: w.Name, PageMoves: len(ps), AllocMoves: len(as)}
		for _, bd := range ps {
			row.PageCyc += float64(bd.TotalCycles())
			row.PageProto += float64(bd.PrototypeCycles())
		}
		for _, bd := range as {
			row.AllocCyc += float64(bd.TotalCycles())
			row.AllocProto += float64(bd.PrototypeCycles())
		}
		row.PageCyc /= float64(len(ps))
		row.PageProto /= float64(len(ps))
		row.AllocCyc /= float64(len(as))
		row.AllocProto /= float64(len(as))
		if row.PageCyc > 0 {
			row.Reduction = 1 - row.AllocCyc/row.PageCyc
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &AblAllocResult{}
	var reds []float64
	for _, rp := range rows {
		if rp == nil {
			continue
		}
		res.Rows = append(res.Rows, *rp)
		if rp.AllocCyc > 0 && rp.PageCyc > 0 {
			reds = append(reds, rp.AllocCyc/rp.PageCyc)
		}
	}
	if g := geomean(reds); g > 0 {
		res.GeoReduction = 1 - g
	}
	return res, nil
}

// Print renders the ablation table.
func (r *AblAllocResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation: allocation-granularity vs page-granularity moves (§6)")
	table(w, func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "benchmark\tpage cyc/move\talloc cyc/move\treduction\tpage proto\talloc proto")
		for _, row := range r.Rows {
			fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.1f%%\t%.0f\t%.0f\n",
				row.Name, row.PageCyc, row.AllocCyc, row.Reduction*100, row.PageProto, row.AllocProto)
		}
		fmt.Fprintf(tw, "geomean reduction\t\t\t%.1f%%\n", r.GeoReduction*100)
	})
}

// AblCapsuleRow compares guarded execution under the two layouts.
type AblCapsuleRow struct {
	Name       string  `json:"name"`
	MultiCyc   uint64  `json:"multi_cycles"`
	CapsuleCyc uint64  `json:"capsule_cycles"`
	Speedup    float64 `json:"speedup"` // MultiCyc / CapsuleCyc
}

// AblCapsuleResult is the dark-capsule ablation.
type AblCapsuleResult struct {
	Rows       []AblCapsuleRow `json:"rows"`
	GeoSpeedup float64         `json:"geomean_speedup"`
}

// AblationCapsule runs guarded builds under the multi-region and capsule
// layouts.
func AblationCapsule(o Options) (*AblCapsuleResult, error) {
	rows, err := eachWorkload(o, func(w *workload.Workload) (*AblCapsuleRow, error) {
		multi, _, err := o.buildAndRun(w, passes.LevelGuardsOpt, vm.ModeCARAT, guard.MechRange, nil)
		if err != nil {
			return nil, err
		}
		m, _, err := o.compileOnly(w, passes.LevelGuardsOpt)
		if err != nil {
			return nil, err
		}
		cfg := o.vmConfig(vm.ModeCARAT, guard.MechRange)
		cfg.Capsule = true
		// The capsule heap also hosts stacks.
		cfg.HeapBytes += cfg.StackBytes * 2
		capV, err := o.run(w.Name, m, cfg, nil)
		if err != nil {
			return nil, err
		}
		return &AblCapsuleRow{
			Name:       w.Name,
			MultiCyc:   multi.Cycles,
			CapsuleCyc: capV.Cycles,
			Speedup:    float64(multi.Cycles) / float64(capV.Cycles),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &AblCapsuleResult{}
	var sps []float64
	for _, rp := range rows {
		res.Rows = append(res.Rows, *rp)
		sps = append(sps, rp.Speedup)
	}
	res.GeoSpeedup = geomean(sps)
	return res, nil
}

// Print renders the ablation table.
func (r *AblCapsuleResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation: single-region capsule vs multi-region layout (guarded builds)")
	table(w, func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "benchmark\tmulti-region cyc\tcapsule cyc\tspeedup")
		for _, row := range r.Rows {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\n", row.Name, row.MultiCyc, row.CapsuleCyc, row.Speedup)
		}
		fmt.Fprintf(tw, "geomean\t\t\t%.3f\n", r.GeoSpeedup)
	})
}
