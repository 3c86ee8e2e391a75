package main

import "time"

// stormKernels are the suite kernels run under injected moves.
var stormKernels = []string{"canneal", "mcf_s", "omnetpp_s", "freqmine", "xalancbmk_s", "LU"}

const (
	stormPeriod      = 200_000 // retired guest instructions between injected moves
	stormPeriodTest  = 20_000
	stormSegment     = 32     // moves between two calibrations inside a run: about 100 ms
	policySteps      = 72_000 // harness rounds per cycle: about a second
	policyStepsTest  = 600
	policyClass      = "mmpolicy"
	policySeedOffset = 7
)

// moveStorm: each op runs one kernel on the closure tier while a worst-case
// page move is injected every stormPeriod instructions; a cycle is the six
// kernels plus one run of the mmpolicy pressure harness. The kernels run in
// a fixed order: what a move costs depends on which guests used the shared
// machine before (the same kernel's median move measured 1.2 ms after one
// predecessor and 2.5 ms after another), and shuffling the order by seed
// would make that property look like noise. The seed drives the harness's
// workload processes only.
type moveStorm struct {
	seed    int64
	sc      scale
	kernels []compiledKernel
	mc      *machine
	cnt     countSet
	ih      inputsHash
}

func newMoveStorm(seed int64, sc scale) *moveStorm {
	return &moveStorm{seed: seed, sc: sc, cnt: countSet{}}
}

func (w *moveStorm) period() uint64 {
	if w.sc == scaleTest {
		return stormPeriodTest
	}
	return stormPeriod
}

func (w *moveStorm) steps() int {
	if w.sc == scaleTest {
		return policyStepsTest
	}
	return policySteps
}

func (w *moveStorm) setup(tr *tracer) error {
	var err error
	w.kernels, err = compileKernels(stormKernels, w.sc, &w.ih)
	if err != nil {
		return err
	}
	w.ih.add("storm-seed", itoa(w.seed), itoa(int64(w.period())), itoa(int64(w.steps())))
	w.mc = newMachine(machineBytes)
	return nil
}

func (w *moveStorm) clients() int { return 1 }

func (w *moveStorm) cycle(recs []*recorder) error {
	rec := recs[0]
	for _, k := range w.kernels {
		w.storm(rec, k)
	}
	w.policy(rec)
	rec.calibrate()
	return nil
}

// storm runs one kernel under injected moves. Work is the moves completed.
// A run lasts up to a second, too long for the calibrations at its two ends
// to say how fast the host was in between, so the move callback cuts the run
// into segments of stormSegment moves and calibrates between them; each
// segment's time is scaled by its own factor.
func (w *moveStorm) storm(rec *recorder, k compiledKernel) {
	rec.tr.beginOp(k.name)
	opIdx := rec.tr.opCount() - 1
	segStart := time.Now()
	g, err := w.mc.load(rec.tr, k.mod, suiteGuest(w.sc))
	if err != nil {
		rec.op(k.name, 0, 0, true)
		rec.calibrate()
		return
	}
	var (
		moves, segMoves int
		notGuest        = time.Since(segStart) // load, release and moves: not guest execution
		guestNorm, fSum float64                // guest execution in reference-host ns; Σ factors
		segs            int
	)
	closeSegment := func(wall time.Duration, f float64) {
		guestNorm += float64(wall-notGuest) * f
		fSum += f
		segs++
		segMoves, notGuest = 0, 0
	}
	g.stormMoves(w.period(), func(ns int64) {
		rec.lat(k.name, float64(ns))
		moves++
		segMoves++
		notGuest += time.Duration(ns)
		if segMoves == stormSegment {
			wall := time.Since(segStart)
			rec.part(float64(segMoves), wall)
			closeSegment(wall, rec.calibrate())
			segStart = time.Now()
		}
	})
	r, runErr := g.run("vm.run.storm")
	t2 := time.Now()
	relErr := g.release()
	notGuest += time.Since(t2)
	wall := time.Since(segStart)
	// Moves are invisible to the guest: it must return and print what the
	// reference run without moves did.
	ok := runErr == nil && relErr == nil && k.gold.matches(r) && moves > 0
	rec.op(k.name, float64(segMoves), wall, !ok)
	closeSegment(wall, rec.calibrate())
	rec.tr.setFactor(opIdx, fSum/float64(segs))
	if !ok {
		return
	}
	// cold: guest execution between the moves, per 10 M instructions; what a
	// move leaves behind (deopted closures, flushed caches) shows here.
	rec.coldNormalised(k.name, guestNorm/(float64(r.Instrs)/1e7))
	w.cnt.addRun(r)
}

// policy runs the pressure harness once. Work is the moves and swaps the
// policies carried out.
func (w *moveStorm) policy(rec *recorder) {
	rec.tr.beginOp(policyClass)
	t0 := time.Now()
	res, err := runPolicyHarness(rec.tr, w.seed+policySeedOffset, w.steps())
	d := time.Since(t0)
	work := float64(res.Moves + res.SwapOuts + res.SwapIns)
	rec.op(policyClass, work, d, err != nil || work == 0)
	if err != nil {
		return
	}
	w.cnt["mmpolicy.decisions"] += float64(res.Decisions)
	w.cnt["mmpolicy.defrag_moves"] += float64(res.DefragMoves)
	w.cnt["mmpolicy.swap_outs"] += float64(res.SwapOuts)
	w.cnt["mmpolicy.swap_ins"] += float64(res.SwapIns)
	w.cnt["mmpolicy.moves"] += float64(res.Moves)
	w.cnt["mmpolicy.page_allocs"] += float64(res.PageAllocs)
	w.cnt["mmpolicy.page_moves"] += float64(res.PageMoves)
	w.cnt["mmpolicy.runtime_moves"] += float64(res.RuntimeMoves)
	w.cnt["mmpolicy.move_rollbacks"] += float64(res.Rollbacks)
	w.cnt["mmpolicy.move_cycles"] += float64(res.MoveCycles)
}

// extraTraced runs the six kernels once more without moves, so the trace
// holds the steady rate the storm rate is compared against.
func (w *moveStorm) extraTraced(rec *recorder) error {
	for _, k := range w.kernels {
		rec.tr.beginOp("steady-" + k.name)
		g, err := w.mc.load(rec.tr, k.mod, suiteGuest(w.sc))
		if err != nil {
			return err
		}
		if _, err := g.run("vm.run"); err != nil {
			return err
		}
		if err := g.release(); err != nil {
			return err
		}
		rec.calibrate()
	}
	return nil
}

func (w *moveStorm) counts() map[string]float64 {
	out := w.cnt.copy()
	c := w.mc.counters()
	out["kernel.page_allocs"] = float64(c["carat.kernel.page_allocs"]) + out["mmpolicy.page_allocs"]
	out["kernel.page_moves"] = float64(c["carat.kernel.page_moves"]) + out["mmpolicy.page_moves"]
	out["runtime.moves"] = float64(c["carat.runtime.moves"]) + out["mmpolicy.runtime_moves"]
	out["runtime.move_rollbacks"] = float64(c["carat.runtime.move_rollbacks"]) + out["mmpolicy.move_rollbacks"]
	out["runtime.move_cycles"] = float64(c["carat.runtime.move_cycles"]) + out["mmpolicy.move_cycles"]
	return out
}

func (w *moveStorm) inputsSHA() string { return w.ih.String() }
