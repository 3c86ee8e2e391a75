package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"carat/internal/kernel"
	"carat/internal/mmpolicy"
	"carat/internal/runtime"
	"carat/internal/workload"
)

// Policy-daemon experiments (§7): the paper argues that once CARAT makes
// moves cheap, kernel memory-management services — compaction for
// superpages, tiering via swap, NUMA migration — become ordinary policy
// code. These experiments run the mmpolicy daemon against the
// multi-process pressure harness and report what it did, with per-move
// costs in the same cycle units as Table 3.

// policyMemBytes sizes the shared physical memory: small enough that the
// workloads actually create fragmentation and pressure.
func policyMemBytes(o Options) uint64 {
	if o.Scale == workload.ScaleTest {
		return 1 << 21 // 512 pages
	}
	return 1 << 22 // 1024 pages
}

func policySteps(o Options, test, full int) int {
	if o.Scale == workload.ScaleTest {
		return test
	}
	return full
}

// policyProcScale doubles workload footprints at non-test scales so the
// fragmentation and pressure the experiments rely on track the larger
// memory.
func policyProcScale(o Options) int {
	if o.Scale == workload.ScaleTest {
		return 1
	}
	return 2
}

// defragTargetRun is the contiguous free run the defrag experiment must
// assemble — a superpage-candidate window.
const defragTargetRun = 64

// pauseLine renders the carat.runtime.pause_cycles percentiles from a
// policy document: every world stop (move, abort, protect, swap) in the run
// contributes to them.
func pauseLine(w io.Writer, doc *mmpolicy.Document) {
	if doc == nil || doc.PauseCycles == nil {
		return
	}
	p := doc.PauseCycles
	fmt.Fprintf(w, "pause cycles (%d world stops): p50 %.0f, p95 %.0f, p99 %.0f, max %d\n",
		p.Count, p.P50, p.P95, p.P99, p.Max)
}

// DefragResult reports the defragmentation experiment.
type DefragResult struct {
	TargetRun  uint64             `json:"target_run"`
	FragBefore kernel.FragStats   `json:"frag_before"`
	FragAfter  kernel.FragStats   `json:"frag_after"`
	Ticks      int                `json:"ticks"`
	Moves      uint64             `json:"moves"`
	Vetoes     uint64             `json:"vetoes"`
	Restored   bool               `json:"restored"`  // largest run >= target at the end
	Breakdown  Table3Row          `json:"breakdown"` // avg cycles per daemon-issued move
	Verified   bool               `json:"verified"`  // harness integrity check passed
	Policy     *mmpolicy.Document `json:"policy"`
}

// Defrag fragments a multi-process heap with churn workloads, then lets
// the daemon compact until a superpage-sized contiguous free run exists.
func Defrag(o Options) (*DefragResult, error) {
	s := policyProcScale(o)
	reg, done := o.runObs()
	defer done()
	h, err := mmpolicy.NewHarness(mmpolicy.HarnessConfig{
		MemBytes: policyMemBytes(o),
		Procs: []mmpolicy.ProcSpec{
			{Name: "churn-a", Kind: mmpolicy.Churn, Slots: 48 * s, MaxPages: 4, Seed: 11},
			{Name: "churn-b", Kind: mmpolicy.Churn, Slots: 48 * s, MaxPages: 4, Seed: 12},
			{Name: "churn-c", Kind: mmpolicy.Churn, Slots: 48 * s, MaxPages: 4, Seed: 13},
		},
		Policies: []mmpolicy.Policy{mmpolicy.NewDefrag(defragTargetRun)},
		Obs:      reg,
		Trace:    o.Trace,
		Fault:    o.Fault,
		Sampler:  o.Sampler,
	})
	if err != nil {
		return nil, err
	}
	// Phase 1: fragment. No ticks — the daemon sleeps while churn runs.
	if err := h.Run(policySteps(o, 500, 2000)); err != nil {
		return nil, err
	}
	h.D.CaptureFragBefore()
	before := h.K.Alloc.FragStats()

	// Phase 2: compact. Tick until the target run exists (bounded).
	res := &DefragResult{TargetRun: defragTargetRun, FragBefore: before}
	for res.Ticks < 50 {
		consumed, err := h.D.Tick(h.Cycles)
		h.Cycles += consumed
		if err != nil {
			return nil, err
		}
		res.Ticks++
		if h.K.Alloc.FragStats().LargestRun >= defragTargetRun {
			break
		}
	}
	res.FragAfter = h.K.Alloc.FragStats()
	res.Restored = res.FragAfter.LargestRun >= defragTargetRun

	if err := h.Verify(); err != nil {
		return nil, fmt.Errorf("bench: defrag harness integrity: %w", err)
	}
	res.Verified = true

	var stats []runtime.MoveBreakdown
	for _, wp := range h.Procs {
		stats = append(stats, wp.MP.RT.MoveStats...)
	}
	if len(stats) > 0 {
		res.Breakdown = averageBreakdown("defrag moves", stats)
	}
	res.Policy = h.D.Report()
	res.Moves = res.Policy.Totals.Moves
	res.Vetoes = res.Policy.Totals.Vetoes
	if o.PolicySink != nil {
		o.PolicySink(res.Policy)
	}
	return res, nil
}

// Print renders the defrag report.
func (r *DefragResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Defragmentation: assemble a %d-page contiguous run\n", r.TargetRun)
	table(w, func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "\tfree pages\tfree runs\tlargest run\tfrag score")
		fmt.Fprintf(tw, "before\t%d\t%d\t%d\t%.3f\n",
			r.FragBefore.FreePages, r.FragBefore.FreeRuns, r.FragBefore.LargestRun, r.FragBefore.Score)
		fmt.Fprintf(tw, "after\t%d\t%d\t%d\t%.3f\n",
			r.FragAfter.FreePages, r.FragAfter.FreeRuns, r.FragAfter.LargestRun, r.FragAfter.Score)
	})
	fmt.Fprintf(w, "restored=%v in %d ticks: %d moves, %d vetoes, verified=%v\n",
		r.Restored, r.Ticks, r.Moves, r.Vetoes, r.Verified)
	if r.Breakdown.Moves > 0 {
		fmt.Fprintf(w, "per-move cycles: expand %.0f, patch %.0f, regs %.0f, alloc+move %.0f (total %.0f)\n",
			r.Breakdown.PageExpand, r.Breakdown.PatchGenExec, r.Breakdown.RegisterPatch,
			r.Breakdown.AllocAndMove, r.Breakdown.TotalCost)
	}
	pauseLine(w, r.Policy)
}

// TieringResult reports the hot/cold tiering experiment.
type TieringResult struct {
	SwapOuts   uint64             `json:"swap_outs"`
	SwapIns    uint64             `json:"swap_ins"`
	FreeBefore uint64             `json:"free_pages_before"`
	FreeAfter  uint64             `json:"free_pages_after"`
	Ticks      int                `json:"ticks"`
	Verified   bool               `json:"verified"`
	Policy     *mmpolicy.Document `json:"policy"`
}

// Tiering runs hot (stream), cold (coldstore), and churn processes in a
// memory too small for all of them: the daemon must evict cold memory to
// keep the allocator above its watermark, and the workloads fault evicted
// allocations back in on access.
func Tiering(o Options) (*TieringResult, error) {
	s := policyProcScale(o)
	reg, done := o.runObs()
	defer done()
	h, err := mmpolicy.NewHarness(mmpolicy.HarnessConfig{
		MemBytes:  policyMemBytes(o) / 2,
		TickEvery: 40_000,
		Procs: []mmpolicy.ProcSpec{
			{Name: "stream", Kind: mmpolicy.Stream, Slots: 12 * s, MaxPages: 2, Seed: 21},
			{Name: "cold", Kind: mmpolicy.ColdStore, Slots: 72 * s, MaxPages: 2, Seed: 22},
			{Name: "churn", Kind: mmpolicy.Churn, Slots: 96 * s, MaxPages: 3, Seed: 23},
		},
		Policies: []mmpolicy.Policy{mmpolicy.NewTiering()},
		Obs:      reg,
		Trace:    o.Trace,
		Fault:    o.Fault,
		Sampler:  o.Sampler,
	})
	if err != nil {
		return nil, err
	}
	res := &TieringResult{FreeBefore: h.K.Alloc.FreePages()}
	if err := h.Run(policySteps(o, 600, 2400)); err != nil {
		return nil, err
	}
	res.FreeAfter = h.K.Alloc.FreePages()
	// Verify faults every still-swapped allocation back in, closing the
	// round trip (and checking no stamp was lost on the way).
	if err := h.Verify(); err != nil {
		return nil, fmt.Errorf("bench: tiering harness integrity: %w", err)
	}
	res.Verified = true
	res.Policy = h.D.Report()
	res.SwapOuts = res.Policy.Totals.SwapOuts
	res.SwapIns = res.Policy.Totals.SwapIns
	res.Ticks = res.Policy.Ticks
	if o.PolicySink != nil {
		o.PolicySink(res.Policy)
	}
	return res, nil
}

// Print renders the tiering report.
func (r *TieringResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Hot/cold tiering under memory pressure")
	table(w, func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "swap-outs\tswap-ins\tfree before\tfree after\tticks\tverified")
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%v\n",
			r.SwapOuts, r.SwapIns, r.FreeBefore, r.FreeAfter, r.Ticks, r.Verified)
	})
	pauseLine(w, r.Policy)
}

// PolicyActionCount is one policy's slice of the decision log.
type PolicyActionCount struct {
	Policy string `json:"policy"`
	Moves  uint64 `json:"moves"`
	Swaps  uint64 `json:"swaps"`
	Vetoes uint64 `json:"vetoes"`
	Cycles uint64 `json:"cycles"`
}

// PolicyResult reports the combined multi-policy pressure run.
type PolicyResult struct {
	Procs      []string            `json:"procs"`
	Steps      int                 `json:"steps"`
	Cycles     uint64              `json:"cycles"`
	Ticks      int                 `json:"ticks"`
	PerPolicy  []PolicyActionCount `json:"per_policy"`
	Totals     mmpolicy.Totals     `json:"totals"`
	FragBefore kernel.FragStats    `json:"frag_before"`
	FragAfter  kernel.FragStats    `json:"frag_after"`
	Verified   bool                `json:"verified"`
	Policy     *mmpolicy.Document  `json:"policy"`
}

// Policy is the full pressure experiment: every workload kind, every
// policy, daemon auto-ticking on the shared cycle clock.
func Policy(o Options) (*PolicyResult, error) {
	s := policyProcScale(o)
	specs := []mmpolicy.ProcSpec{
		{Name: "churn-a", Kind: mmpolicy.Churn, Slots: 96 * s, MaxPages: 4, Seed: 31},
		{Name: "churn-b", Kind: mmpolicy.Churn, Slots: 96 * s, MaxPages: 4, Seed: 32},
		{Name: "stream", Kind: mmpolicy.Stream, Slots: 12 * s, MaxPages: 2, Seed: 33},
		{Name: "cold", Kind: mmpolicy.ColdStore, Slots: 48 * s, MaxPages: 2, Seed: 34},
	}
	reg, done := o.runObs()
	defer done()
	h, err := mmpolicy.NewHarness(mmpolicy.HarnessConfig{
		MemBytes:  policyMemBytes(o),
		TickEvery: 50_000,
		Procs:     specs,
		Policies: []mmpolicy.Policy{
			mmpolicy.NewDefrag(defragTargetRun),
			mmpolicy.NewTiering(),
			mmpolicy.NewNUMARebalance(),
		},
		Obs:     reg,
		Trace:   o.Trace,
		Fault:   o.Fault,
		Sampler: o.Sampler,
	})
	if err != nil {
		return nil, err
	}
	h.D.CaptureFragBefore()
	steps := policySteps(o, 800, 3200)
	if err := h.Run(steps); err != nil {
		return nil, err
	}
	if err := h.Verify(); err != nil {
		return nil, fmt.Errorf("bench: policy harness integrity: %w", err)
	}
	doc := h.D.Report()

	res := &PolicyResult{
		Steps:    steps,
		Cycles:   h.Cycles,
		Ticks:    doc.Ticks,
		Totals:   doc.Totals,
		Verified: true,
		Policy:   doc,
	}
	for _, s := range specs {
		res.Procs = append(res.Procs, fmt.Sprintf("%s(%s)", s.Name, s.Kind))
	}
	if doc.FragBefore != nil {
		res.FragBefore = *doc.FragBefore
	}
	if doc.FragAfter != nil {
		res.FragAfter = *doc.FragAfter
	}
	counts := make(map[string]*PolicyActionCount)
	names := append([]string(nil), doc.Policies...)
	for _, name := range names {
		counts[name] = &PolicyActionCount{Policy: name}
	}
	for _, dec := range doc.Decisions {
		c, ok := counts[dec.Policy]
		if !ok {
			c = &PolicyActionCount{Policy: dec.Policy}
			counts[dec.Policy] = c
			names = append(names, dec.Policy)
		}
		switch dec.Action {
		case mmpolicy.ActionMove:
			c.Moves++
		case mmpolicy.ActionSwapOut, mmpolicy.ActionSwapIn:
			c.Swaps++
		case mmpolicy.ActionVeto:
			c.Vetoes++
		}
		c.Cycles += dec.Cycles
	}
	for _, name := range names {
		res.PerPolicy = append(res.PerPolicy, *counts[name])
	}
	if o.PolicySink != nil {
		o.PolicySink(doc)
	}
	return res, nil
}

// Print renders the combined policy report.
func (r *PolicyResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Policy daemon under multi-process pressure (%d steps, %d ticks)\n",
		r.Steps, r.Ticks)
	table(w, func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "policy\tmoves\tswaps\tvetoes\tcycles")
		for _, c := range r.PerPolicy {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n", c.Policy, c.Moves, c.Swaps, c.Vetoes, c.Cycles)
		}
	})
	fmt.Fprintf(w, "largest free run %d -> %d pages; daemon overhead %d cycles; verified=%v\n",
		r.FragBefore.LargestRun, r.FragAfter.LargestRun, r.Totals.DaemonCycles, r.Verified)
	pauseLine(w, r.Policy)
}
