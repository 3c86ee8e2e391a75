package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// processStart is as close to process start as the program can see;
// setup_s is measured from here.
var processStart = time.Now()

// lat is one latency sample of an op class, in ns.
type lat struct {
	class string
	ns    float64
}

// results holds a phase's measurements. Times are reference-host ns except
// rawNS.
type results struct {
	ops, failed int
	work        float64
	normNS      float64 // Σ op time, normalised
	rawNS       float64 // Σ op time, wall
	op, cold    []lat
}

func (r *results) merge(o *results) {
	r.ops += o.ops
	r.failed += o.failed
	r.work += o.work
	r.normNS += o.normNS
	r.rawNS += o.rawNS
	r.op = append(r.op, o.op...)
	r.cold = append(r.cold, o.cold...)
}

func split(ls []lat) (classes []string, ms []float64) {
	classes, ms = make([]string, len(ls)), make([]float64, len(ls))
	for i, l := range ls {
		classes[i], ms[i] = l.class, l.ns/1e6
	}
	return classes, ms
}

// recorder collects one client's ops. Ops recorded between two calls of
// calibrate form a batch; closing the batch scales its wall times by the
// speed factor of the two calibrations around it.
type recorder struct {
	cal     *calibrator
	tr      *tracer // nil in the untraced phases
	res     results
	pend    results
	calPrev float64
	mark    int // first tracer op of the pending batch
}

func newRecorder(cal *calibrator, tr *tracer) *recorder {
	r := &recorder{cal: cal, tr: tr, mark: tr.opCount()}
	r.calPrev = cal.run()
	return r
}

// op records one finished op: its class, the work it completed, its wall
// time and whether it failed.
func (r *recorder) op(class string, work float64, wall time.Duration, failed bool) {
	r.pend.ops++
	if failed {
		r.pend.failed++
		return
	}
	r.pend.work += work
	r.pend.rawNS += float64(wall)
}

// part records work and wall time of an op still under way, so that a long
// op can be cut at a calibration; the op's remainder is recorded with op.
func (r *recorder) part(work float64, wall time.Duration) {
	r.pend.work += work
	r.pend.rawNS += float64(wall)
}

// lat adds a sample to the op-latency series, cold to the cold series.
func (r *recorder) lat(class string, ns float64)  { r.pend.op = append(r.pend.op, lat{class, ns}) }
func (r *recorder) cold(class string, ns float64) { r.pend.cold = append(r.pend.cold, lat{class, ns}) }

// coldNormalised adds a cold sample that is already in reference-host time.
func (r *recorder) coldNormalised(class string, ns float64) {
	r.res.cold = append(r.res.cold, lat{class, ns})
}

// calibrate closes the pending batch and returns its speed factor.
func (r *recorder) calibrate() float64 {
	id := r.tr.begin("benchmark.calibrate")
	next := r.cal.run()
	r.tr.end(id, 0)
	f := factor(r.calPrev, next)
	r.calPrev = next
	p := &r.pend
	r.res.ops += p.ops
	r.res.failed += p.failed
	r.res.work += p.work
	r.res.rawNS += p.rawNS
	r.res.normNS += p.rawNS * f
	for _, l := range p.op {
		r.res.op = append(r.res.op, lat{l.class, l.ns * f})
	}
	for _, l := range p.cold {
		r.res.cold = append(r.res.cold, lat{l.class, l.ns * f})
	}
	r.tr.setFactor(r.mark, f)
	r.mark = r.tr.opCount()
	*p = results{op: p.op[:0], cold: p.cold[:0]}
	return f
}

// workload is one of the four benchmark workloads, at full or test scale.
type workload interface {
	// setup builds the inputs from the seed and boots what the workload
	// runs on. The caller runs the warm-up cycle.
	setup(tr *tracer) error
	// clients is how many closed-loop clients drive the workload.
	clients() int
	// cycle runs one cycle of ops, client i recording into recs[i].
	cycle(recs []*recorder) error
	// extraTraced runs what only the traced cycle needs (reference runs,
	// shadow stages); it is never timed.
	extraTraced(rec *recorder) error
	// counts are exact counts accumulated by the cycles run so far.
	counts() map[string]float64
	inputsSHA() string
}

type scale int

const (
	scaleFull scale = iota
	scaleTest
)

var workloadNames = []string{"exec-steady", "compile-cold", "serve-mixed", "move-storm"}

func newWorkload(name string, seed int64, sc scale) (workload, error) {
	switch name {
	case "exec-steady":
		return newExecSteady(seed, sc), nil
	case "compile-cold":
		return newCompileCold(seed, sc), nil
	case "serve-mixed":
		return newServeMixed(seed, sc), nil
	case "move-storm":
		return newMoveStorm(seed, sc), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// plan is how often a run repeats each phase of a workload.
type plan struct {
	// setups is how often the set-up is measured in one run: where it takes
	// a second or two it is repeated and the median reported; where the
	// warm-up cycle alone takes about five seconds it is measured once.
	setups int
	// warmups is how many cycles a set-up runs before anything is timed:
	// one, except where a cycle is so short that one would leave the Go heap
	// and the machine's pages cold and the set-up under half a second.
	warmups int
	// traced is the fixed length of the traced phase in cycles: long enough
	// that its throughput can be held against the untraced one, fixed so
	// that its counts repeat exactly.
	traced int
}

var fullPlans = map[string]plan{
	"exec-steady":  {setups: 1, warmups: 1, traced: 1},
	"compile-cold": {setups: 5, warmups: 3, traced: 8},
	"serve-mixed":  {setups: 3, warmups: 1, traced: 3},
	"move-storm":   {setups: 1, warmups: 1, traced: 1},
}

func planFor(name string, sc scale) plan {
	if sc == scaleTest {
		return plan{1, 1, 1}
	}
	return fullPlans[name]
}

// harness drives one workload through set-up, the timed phase and, when
// asked, the traced cycle.
type harness struct {
	name     string
	seed     int64
	sc       scale
	w        workload
	cals     []*calibrator
	setupsNS []float64 // each set-up's duration, normalised
}

func newRecorders(cals []*calibrator, trs []*tracer) []*recorder {
	recs := make([]*recorder, len(cals))
	for i := range cals {
		var tr *tracer
		if trs != nil {
			tr = trs[i]
		}
		recs[i] = newRecorder(cals[i], tr)
	}
	return recs
}

func mergeResults(recs []*recorder) *results {
	out := &results{}
	for _, r := range recs {
		out.merge(&r.res)
	}
	return out
}

// doSetup builds a fresh workload, runs its set-up and one warm-up cycle and
// returns the elapsed time since from, in reference-host ns. Time spent in
// the calibration kernel itself is taken out. tr, when set, must be empty:
// it receives the spans of the set-up proper under one op of class "setup".
func (h *harness) doSetup(from time.Time, tr *tracer) (float64, error) {
	w, err := newWorkload(h.name, h.seed, h.sc)
	if err != nil {
		return 0, err
	}
	if h.cals == nil {
		for i := 0; i < w.clients(); i++ {
			h.cals = append(h.cals, newCalibrator())
		}
	}
	marks := make([]int, len(h.cals))
	for i, c := range h.cals {
		marks[i] = len(c.samples)
	}
	// The warm-up cycle is a regular cycle, calibrations included, but is
	// never traced: its first-time costs are set-up, not layer behaviour.
	recs := newRecorders(h.cals, nil)
	tr.beginOp("setup")
	if err := w.setup(tr); err != nil {
		return 0, fmt.Errorf("%s: set-up: %w", h.name, err)
	}
	for i := 0; i < planFor(h.name, h.sc).warmups; i++ {
		if err := w.cycle(recs); err != nil {
			return 0, fmt.Errorf("%s: warm-up cycle: %w", h.name, err)
		}
	}
	wall := float64(time.Since(from))
	if res := mergeResults(recs); res.failed > 0 {
		return 0, fmt.Errorf("%s: %d of %d warm-up ops failed", h.name, res.failed, res.ops)
	}
	// Client 0's calibrations stand for the host's speed during set-up.
	cal := h.cals[0].samples[marks[0]:]
	var inCal float64
	for i, c := range h.cals {
		if s := sum(c.samples[marks[i]:]); s > inCal {
			inCal = s // clients calibrate concurrently: the longest covers the wall
		}
	}
	f := calRefNS / (sum(cal) / float64(len(cal)))
	tr.setFactor(0, f)
	h.w = w
	return (wall - inCal) * f, nil
}

// timed runs cycles until d has passed, always finishing the current cycle.
func (h *harness) timed(d time.Duration) (*results, time.Duration, error) {
	recs := newRecorders(h.cals, nil)
	start := time.Now()
	for {
		if err := h.w.cycle(recs); err != nil {
			return nil, 0, err
		}
		if time.Since(start) >= d {
			break
		}
	}
	return mergeResults(recs), time.Since(start), nil
}

// traced runs the traced phase: a fixed number of cycles with spans on, then
// what only the trace needs. It returns the cycles' results and the exact
// counts they added.
func (h *harness) traced(tr *tracer) (*results, map[string]float64, error) {
	trs := make([]*tracer, len(h.cals))
	for i := range trs {
		trs[i] = newTracer(tr.pass)
	}
	recs := newRecorders(h.cals, trs)
	c0 := h.w.counts()
	for i := 0; i < planFor(h.name, h.sc).traced; i++ {
		if err := h.w.cycle(recs); err != nil {
			return nil, nil, err
		}
	}
	counts := h.w.counts()
	for k, v := range counts {
		counts[k] = v - c0[k]
	}
	if err := h.w.extraTraced(newRecorder(h.cals[0], trs[0])); err != nil {
		return nil, nil, fmt.Errorf("%s: traced extras: %w", h.name, err)
	}
	for _, t := range trs {
		tr.merge(t)
	}
	return mergeResults(recs), counts, nil
}

// runClients runs fn for each client on its own goroutine and waits; client
// 0 runs on the calling goroutine.
func runClients(n int, fn func(i int) error) error {
	if n == 1 {
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	errs[0] = fn(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// memSnapshot is the part of runtime.MemStats the metrics use.
type memSnapshot struct {
	totalAlloc, heapAlloc, pauseNS uint64
	numGC                          uint32
}

func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{ms.TotalAlloc, ms.HeapAlloc, ms.PauseTotalNs, ms.NumGC}
}
