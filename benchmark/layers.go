package main

import (
	"math"
	"strings"
)

// metricDef names a metric, its unit and which way is better. The two tables
// below must equal BENCHMARK.json's end_to_end and per_layer lists
// (TestNamesMatchBenchmarkJSON).
type metricDef struct {
	Name, Unit, Better string
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"cold_p50_ms", "ms", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// layerDefs lists the per-layer metrics. The 22 per-kernel rows are spliced
// in after vm.run.worst_minstr_per_s.
func layerDefs() []metricDef {
	defs := []metricDef{
		{"ir.parse.us_per_kinstr", "us", "lower"},
		{"cc.compile.us_per_kinstr", "us", "lower"},
		{"passes.run.us_per_kinstr", "us", "lower"},
		{"passes.run.big_over_small", "ratio", "lower"},
		{"passes.ir_growth", "ratio", "lower"},
		{"passes.guards_injected", "count", "lower"},
		{"passes.guards_remaining", "count", "lower"},
		{"analysis.cache_hit_share", "ratio", "higher"},
		{"signing.sign_verify.us", "us", "lower"},
		{"vm.load.ms", "ms", "lower"},
		{"vm.run.minstr_per_s", "M/s", "higher"},
		{"vm.run.worst_minstr_per_s", "M/s", "higher"},
	}
	for _, k := range kernelNames {
		defs = append(defs, metricDef{"vm.run." + k + ".minstr_per_s", "M/s", "higher"})
	}
	return append(defs, []metricDef{
		{"vm.tierup.us_per_kinstr", "us", "lower"},
		{"vm.release.ms", "ms", "lower"},
		{"vm.deopt_tax_pct", "%", "lower"},
		{"vm.instrs", "count", "lower"},
		{"vm.cycles", "count", "lower"},
		{"vm.guard_checks", "count", "lower"},
		{"vm.closure.deopts", "count", "lower"},
		{"vm.closure.blocks", "count", "lower"},
		{"vm.closure.ic_hit_share", "ratio", "higher"},
		{"guard.xcache.hit_share", "ratio", "higher"},
		{"guard.check.ns", "ns", "lower"},
		{"guard.xcache.hit_ns", "ns", "lower"},
		{"kernel.grant.us_per_mb", "us", "lower"},
		{"kernel.page_allocs", "count", "lower"},
		{"kernel.page_moves", "count", "lower"},
		{"runtime.move.p50_us", "us", "lower"},
		{"runtime.move.p90_us", "us", "lower"},
		{"runtime.moves", "count", "higher"},
		{"runtime.move_rollbacks", "count", "lower"},
		{"runtime.move_cycles", "count", "lower"},
		{"mmpolicy.run.steps_per_s", "1/s", "higher"},
		{"mmpolicy.verify.ms", "ms", "lower"},
		{"mmpolicy.decisions", "count", "lower"},
		{"mmpolicy.defrag_moves", "count", "lower"},
		{"mmpolicy.swap_outs", "count", "lower"},
		{"mmpolicy.swap_ins", "count", "lower"},
		{"server.hot.self_ms", "ms", "lower"},
		{"server.cold.self_ms", "ms", "lower"},
		{"server.hot.p90_ms", "ms", "lower"},
		{"server.hot.p99_ms", "ms", "lower"},
		{"server.cold.p90_ms", "ms", "lower"},
		{"server.boot.ms", "ms", "lower"},
		{"server.module_cache.hit_share", "ratio", "higher"},
		{"server.module_cache.evictions", "count", "lower"},
		{"server.rejections", "count", "lower"},
		{"host.speed_factor.p50", "ratio", "higher"},
		{"host.speed_factor.min", "ratio", "higher"},
		{"host.speed_factor.max", "ratio", "higher"},
		{"host.raw_work_per_s", "1/s", "higher"},
		{"host.gc_cycles", "count", "lower"},
		{"host.gc_pause_ms", "ms", "lower"},
		{"trace.overhead_pct", "%", "lower"},
		{"trace.span_coverage_pct", "%", "higher"},
		{"trace.intended_share_pct", "%", "higher"},
	}...)
}

// kernelNames is the suite in the paper's order; adapter.go's suiteKernels
// must return exactly these (checked in the tests and at start-up).
var kernelNames = []string{
	"HPCCG", "CG", "EP", "FT", "LU",
	"blackscholes", "bodytrack", "canneal", "fluidanimate", "freqmine",
	"streamcluster", "swaptions", "x264",
	"deepsjeng_s", "lbm_s", "mcf_s", "nab_s", "namd_r", "omnetpp_s",
	"x264_s", "xalancbmk_s", "xz_s",
}

// passLayers computes every per-layer metric one pass's spans and counts
// allow. Times are reference-host time. A metric whose layer the pass did
// not exercise is left out; the caller takes it from another pass.
func passLayers(tr *tracer, pass string, counts map[string]float64) map[string]float64 {
	ag := tr.aggregate(pass)
	out := map[string]float64{}
	put := func(name string, v float64) {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[name] = v
		}
	}
	perWork := func(span string) float64 { // ns per unit of work
		s := ag[span]
		if s == nil || s.work == 0 {
			return math.NaN()
		}
		return s.total / s.work
	}
	med := func(span string, div float64) float64 {
		s := ag[span]
		if s == nil {
			return math.NaN()
		}
		return median(s.durs) / div
	}
	share := func(hit, miss string) float64 {
		h, hok := counts[hit]
		m, mok := counts[miss]
		if !hok || !mok || h+m == 0 {
			return math.NaN()
		}
		return h / (h + m)
	}
	count := func(name string) {
		if v, ok := counts[name]; ok {
			put(name, v)
		}
	}
	classOf := func(op int32) string {
		if op < 0 {
			return ""
		}
		return tr.ops[op].Class
	}

	put("ir.parse.us_per_kinstr", perWork("ir.parse"))
	put("cc.compile.us_per_kinstr", perWork("cc.compile"))
	put("passes.run.us_per_kinstr", perWork("passes.run"))
	if s := ag["passes.run"]; s != nil {
		// Per-instruction cost of the larger inputs over the smaller ones;
		// 1.0 means the pipeline is linear in program size.
		mid := median(s.works)
		var bigT, bigW, smallT, smallW float64
		for i, w := range s.works {
			if w > mid {
				bigT, bigW = bigT+s.durs[i], bigW+w
			} else if w < mid {
				smallT, smallW = smallT+s.durs[i], smallW+w
			}
		}
		if bigW > 0 && smallW > 0 {
			put("passes.run.big_over_small", (bigT/bigW)/(smallT/smallW))
		}
	}
	if b := counts["passes.instrs_before"]; b > 0 {
		put("passes.ir_growth", counts["passes.instrs_after"]/b)
	}
	count("passes.guards_injected")
	count("passes.guards_remaining")
	put("analysis.cache_hit_share", share("analysis.cache_hits", "analysis.cache_misses"))
	put("signing.sign_verify.us", med("signing.sign_verify", 1e3))
	put("vm.load.ms", med("vm.load", 1e6))
	put("vm.release.ms", med("vm.release", 1e6))
	put("vm.tierup.us_per_kinstr", perWork("vm.tierup"))

	if s := ag["vm.run"]; s != nil {
		// Guest rates come from ops whose class is a suite kernel's name,
		// that is from an exec-steady cycle: a generated program is too short
		// for its rate to mean anything.
		t, w := map[string]float64{}, map[string]float64{}
		var sT, sW float64 // the storm kernels' reference runs without moves
		for i, op := range s.ops {
			c := classOf(op)
			t[c] += s.durs[i]
			w[c] += s.works[i]
			if strings.HasPrefix(c, "steady-") {
				sT, sW = sT+s.durs[i], sW+s.works[i]
			}
		}
		var allT, allW float64
		worst := math.Inf(1)
		for _, k := range kernelNames {
			if t[k] > 0 {
				rate := w[k] / t[k] * 1e3
				put("vm.run."+k+".minstr_per_s", rate)
				worst = math.Min(worst, rate)
				allT, allW = allT+t[k], allW+w[k]
			}
		}
		if allT > 0 {
			put("vm.run.minstr_per_s", allW/allT*1e3)
			put("vm.run.worst_minstr_per_s", worst)
		}
		// Deopt tax: the storm kernels' guest rate between moves against
		// their rate without moves in the same pass.
		if st := ag["vm.run.storm"]; st != nil && st.self > 0 && sT > 0 {
			put("vm.deopt_tax_pct", 100*(1-(st.work/st.self)/(sW/sT)))
		}
	}
	for _, c := range []string{"vm.instrs", "vm.cycles", "vm.guard_checks", "vm.closure.deopts", "vm.closure.blocks",
		"kernel.page_allocs", "kernel.page_moves", "runtime.moves", "runtime.move_rollbacks", "runtime.move_cycles",
		"mmpolicy.decisions", "mmpolicy.defrag_moves", "mmpolicy.swap_outs", "mmpolicy.swap_ins",
		"server.module_cache.evictions", "server.rejections"} {
		count(c)
	}
	put("vm.closure.ic_hit_share", share("vm.closure.ic_hits", "vm.closure.ic_misses"))
	put("guard.xcache.hit_share", share("guard.xcache.hits", "guard.xcache.misses"))
	put("guard.check.ns", perWork("guard.check"))
	put("guard.xcache.hit_ns", perWork("guard.xcache_hit"))
	put("kernel.grant.us_per_mb", perWork("kernel.grant")/1e3)
	if s := ag["runtime.move"]; s != nil {
		put("runtime.move.p50_us", median(s.durs)/1e3)
		put("runtime.move.p90_us", quantile(s.durs, 0.9)/1e3)
	}
	if s := ag["mmpolicy.run"]; s != nil {
		put("mmpolicy.run.steps_per_s", s.work/s.total*1e9)
	}
	put("mmpolicy.verify.ms", med("mmpolicy.verify", 1e6))
	put("server.boot.ms", med("server.boot", 1e6))
	put("server.module_cache.hit_share", share("server.module_cache.hits", "server.module_cache.misses"))

	if s := ag["server.request"]; s != nil {
		var hot, cold []float64
		reqOf := map[int32]float64{}
		for i, op := range s.ops {
			switch classOf(op) {
			case "hot":
				hot = append(hot, s.durs[i])
			case "cold":
				cold = append(cold, s.durs[i])
			default:
				reqOf[op] = s.durs[i]
			}
		}
		if len(hot) > 0 {
			put("server.hot.p90_ms", quantile(hot, 0.9)/1e6)
			put("server.hot.p99_ms", quantile(hot, 0.99)/1e6)
		}
		if len(cold) > 0 {
			put("server.cold.p90_ms", quantile(cold, 0.9)/1e6)
		}
		// Self time: the handler's time minus the shadow stages that redo
		// the same compile/load/run/release through the adapter.
		if sh := ag["server.shadow"]; sh != nil {
			var hs, cs []float64
			for i, op := range sh.ops {
				self := reqOf[op] - sh.durs[i]
				if classOf(op) == "shadow-cold" {
					cs = append(cs, self)
				} else {
					hs = append(hs, self)
				}
			}
			if len(hs) > 0 {
				put("server.hot.self_ms", median(hs)/1e6)
			}
			if len(cs) > 0 {
				put("server.cold.self_ms", median(cs)/1e6)
			}
		}
	}
	return out
}

// intendedSpans names, per workload, the spans whose time should dominate
// its cycle. serve-mixed is the other way round: its intended share is what
// is left of the handler's time once guest execution is taken out.
var intendedSpans = map[string][]string{
	"exec-steady":  {"vm.run"},
	"compile-cold": {"cc.compile", "ir.parse", "passes.run", "signing.sign_verify", "vm.tierup"},
	"move-storm":   {"runtime.move", "mmpolicy.new", "mmpolicy.run", "mmpolicy.verify"},
}

// traceShares returns, over the pass's cycle ops, the share of op time that
// root spans cover (how much of an op the trace explains) and the share
// spent in the workload's intended layers. opNS is the ops' total time from
// the recorder, in the same reference-host ns as the spans.
func traceShares(tr *tracer, pass string, opNS float64) (coverage, intended float64) {
	var roots, want, shadowReq, shadowRun float64
	isWanted := map[string]bool{}
	for _, n := range intendedSpans[pass] {
		isWanted[n] = true
	}
	for _, sp := range tr.spans {
		if sp.Op < 0 || tr.ops[sp.Op].Pass != pass {
			continue
		}
		op := tr.ops[sp.Op]
		d := float64(sp.End-sp.Start) * op.Factor
		switch {
		case strings.HasPrefix(op.Class, "shadow"):
			if sp.Name == "server.request" {
				shadowReq += d
			} else if sp.Name == "vm.run" {
				shadowRun += d
			}
		case op.Class == "setup" || strings.HasPrefix(op.Class, "steady-"):
		case sp.Name == "benchmark.calibrate":
			// A calibration inside a long op is the benchmark's own time:
			// the recorder leaves it out of the op, so leave it out here.
			if sp.Parent >= 0 {
				roots -= d
			}
		default:
			if sp.Parent < 0 {
				roots += d
			}
			if isWanted[sp.Name] {
				want += d
			}
		}
	}
	if opNS == 0 {
		return math.NaN(), math.NaN()
	}
	intended = 100 * want / opNS
	if pass == "serve-mixed" && shadowReq > 0 {
		intended = 100 * (1 - shadowRun/shadowReq)
	}
	return 100 * roots / opNS, intended
}
