package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// metricValue is one reported number with the samples behind it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N, P25, P50, P75 describe the per-op (or per-run) samples the value
	// summarises; N is 1 for a count read once.
	summary
	// Classes breaks a latency metric down by op class: the value is the
	// median of these medians.
	Classes map[string]summary `json:"classes,omitempty"`
}

// workloadReport is one workload's section of the output document.
type workloadReport struct {
	Name         string                 `json:"name"`
	InputsSHA256 string                 `json:"inputs_sha256"`
	OpsAttempted int                    `json:"ops_attempted"`
	OpsFailed    int                    `json:"ops_failed"`
	TimedSeconds float64                `json:"timed_seconds"`
	UnstableHost bool                   `json:"unstable_host"`
	EndToEnd     map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
}

type runOpts struct {
	seed     int64
	duration time.Duration
	trace    bool
	sc       scale
	// firstStart is when the process started, for the first set-up of the
	// first workload; later workloads start their own clock.
	firstStart time.Time
}

// runWorkload measures one workload: set-up (repeated where it is short),
// the timed phase and, with o.trace, the traced cycle plus the sweep, whose
// spans are returned.
func runWorkload(name string, o runOpts) (*workloadReport, *tracer, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer(name)
	}
	h := &harness{name: name, seed: o.seed, sc: o.sc}
	from := o.firstStart
	reps := planFor(name, o.sc).setups
	if o.trace {
		reps = 1 // a traced run does not report setup_s
	}
	for i := 0; i < reps; i++ {
		if i > 0 || from.IsZero() {
			h.w = nil
			runtime.GC() // the previous repeat's machine must not count against this one
			from = time.Now()
		}
		ns, err := h.doSetup(from, tr)
		if err != nil {
			return nil, nil, err
		}
		h.setupsNS = append(h.setupsNS, ns)
	}

	runtime.GC()
	before := readMem()
	res, wall, err := h.timed(o.duration)
	if err != nil {
		return nil, nil, err
	}
	after := readMem()
	runtime.GC()
	end := readMem() // with the workload's state still reachable
	runtime.KeepAlive(h.w)

	rep := &workloadReport{
		Name: name, InputsSHA256: h.w.inputsSHA(),
		OpsAttempted: res.ops, OpsFailed: res.failed, TimedSeconds: wall.Seconds(),
	}
	var speed []float64
	for _, c := range h.cals {
		for _, s := range c.samples {
			speed = append(speed, calRefNS/s)
		}
	}
	lo, hi := minMax(speed)
	rep.UnstableHost = hi/lo > 2
	clients := float64(len(h.cals))
	good := float64(res.ops - res.failed)
	wps := res.work / res.normNS * 1e9 * clients

	if !o.trace {
		opC, opV := split(res.op)
		coldC, coldV := split(res.cold)
		setups := make([]float64, len(h.setupsNS))
		for i, ns := range h.setupsNS {
			setups[i] = ns / 1e9
		}
		rep.EndToEnd = map[string]metricValue{
			"setup_s":         {median(setups), "s", summarize(setups), nil},
			"work_per_s":      {wps, "1/s", summary{N: res.ops}, nil},
			"op_p50_ms":       {medianOfClasses(opC, opV), "ms", summarize(opV), classSummaries(opC, opV)},
			"cold_p50_ms":     {medianOfClasses(coldC, coldV), "ms", summarize(coldV), classSummaries(coldC, coldV)},
			"alloc_kb_per_op": {float64(after.totalAlloc-before.totalAlloc) / 1024 / good, "KB", summary{N: res.ops}, nil},
			"live_heap_mb":    {float64(end.heapAlloc) / (1 << 20), "MB", summary{N: 1}, nil},
		}
		return rep, nil, nil
	}

	// Traced cycle: the same cycle once more with spans on, then whatever
	// only the trace needs. Counts are taken around the cycle alone, so they
	// repeat exactly from run to run.
	tres, c1, err := h.traced(tr)
	if err != nil {
		return nil, nil, err
	}
	rep.OpsAttempted += tres.ops
	rep.OpsFailed += tres.failed
	layers := passLayers(tr, name, c1)
	twps := tres.work / tres.normNS * 1e9 * clients
	layers["trace.overhead_pct"] = 100 * (wps - twps) / wps
	layers["trace.span_coverage_pct"], layers["trace.intended_share_pct"] = traceShares(tr, name, tres.normNS)
	layers["host.speed_factor.p50"] = median(speed)
	layers["host.speed_factor.min"], layers["host.speed_factor.max"] = lo, hi
	layers["host.raw_work_per_s"] = res.work / res.rawNS * 1e9 * clients
	// The timed phase's collections plus the forced one that closes it.
	layers["host.gc_cycles"] = float64(end.numGC - before.numGC)
	layers["host.gc_pause_ms"] = float64(end.pauseNS-before.pauseNS) / 1e6

	// Sweep: one traced test-scale cycle of every other workload, plus the
	// micro-probes, so that each layer has a measurement in every traced
	// run. A metric this workload's own cycle produced is kept; the rest
	// are filled from the sweep.
	for _, other := range workloadNames {
		if other == name {
			continue
		}
		sub, err := sweepPass(other, o.seed, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("sweep %s: %w", other, err)
		}
		fill(layers, sub)
	}
	sub, err := probePass(tr, h.cals[0])
	if err != nil {
		return nil, nil, err
	}
	fill(layers, sub)

	rep.PerLayer = map[string]metricValue{}
	for _, d := range layerDefs() {
		v, ok := layers[d.Name]
		if !ok || math.IsNaN(v) {
			return nil, nil, fmt.Errorf("%s: per-layer metric %s was not measured", name, d.Name)
		}
		rep.PerLayer[d.Name] = metricValue{v, d.Unit, summary{N: 1}, nil}
	}
	return rep, tr, nil
}

func fill(dst, src map[string]float64) {
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
}

// sweepPass runs set-up, a warm-up cycle and one traced cycle (with extras)
// of a workload at test scale, into tr, and returns its layer metrics.
func sweepPass(name string, seed int64, tr *tracer) (map[string]float64, error) {
	h := &harness{name: name, seed: seed, sc: scaleTest}
	pass := "sweep/" + name
	setupTr := newTracer(pass)
	if _, err := h.doSetup(time.Now(), setupTr); err != nil {
		return nil, err
	}
	tr.merge(setupTr)
	passTr := newTracer(pass)
	res, c1, err := h.traced(passTr)
	if err != nil {
		return nil, err
	}
	if res.failed > 0 {
		return nil, fmt.Errorf("%d of %d ops failed", res.failed, res.ops)
	}
	tr.merge(passTr)
	return passLayers(tr, pass, c1), nil
}

// probePass times the layers no workload span isolates: the guard evaluator
// and the kernel's grant path.
func probePass(tr *tracer, cal *calibrator) (map[string]float64, error) {
	pt := newTracer("probes")
	rec := newRecorder(cal, pt)
	pt.beginOp("guard")
	if err := probeGuard(pt, 2_000_000); err != nil {
		return nil, err
	}
	rec.calibrate()
	pt.beginOp("grant")
	if err := probeGrant(pt, newMachine(1<<26), 16); err != nil {
		return nil, err
	}
	rec.calibrate()
	tr.merge(pt)
	return passLayers(tr, "probes", nil), nil
}
