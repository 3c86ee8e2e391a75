// Command caratvm compiles and executes a textual IR module on the
// simulated CARAT machine (or under the traditional paging model for
// comparison), reporting the result and execution statistics.
//
// Usage:
//
//	caratvm [-level carat] [-mode carat|traditional] [-mech range|mpx|iftree|bsearch] file.cir
//	caratvm -json file.cir              # machine-readable run report
//	caratvm -trace t.json file.cir      # Chrome trace_event file (Perfetto)
//	caratvm -metrics m.json file.cir    # metrics-registry snapshot
//	caratvm -http :0 -http-linger 30s file.cir   # live telemetry server
//
// -http serves /metrics (Prometheus text), /profile (cycle-sampling
// profiler), /trace?sec=N, /healthz, and /readyz while the program runs;
// -http-linger keeps the server up after the run so scrapers can collect
// final state.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"carat/internal/cc"

	"carat/internal/core"
	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/obs"
	"carat/internal/obs/telemetry"
	"carat/internal/passes"
	"carat/internal/vm"
)

// Schema of the -json run report. Bump the version on any incompatible
// field change (see DESIGN.md "Observability").
const (
	runSchema  = "carat.vm.run"
	runVersion = 1
)

// runReport is the -json document: the run's outcome plus the full
// cycle-attribution profile and metrics snapshot.
type runReport struct {
	Schema  string            `json:"schema"`
	Version int               `json:"version"`
	Module  string            `json:"module"`
	Exit    int64             `json:"exit"`
	Instrs  uint64            `json:"instrs"`
	Cycles  uint64            `json:"cycles"`
	CPI     float64           `json:"cpi"`
	Profile *obs.CycleProfile `json:"profile"`
	Metrics obs.Snapshot      `json:"metrics"`
	Output  []int64           `json:"output,omitempty"`
}

func main() {
	level := flag.String("level", "carat", "pipeline level: none, guards, guards-opt, carat, tracking-only")
	mode := flag.String("mode", "carat", "address translation model: carat or traditional")
	mech := flag.String("mech", "range", "guard mechanism: range, mpx, iftree, bsearch, linear")
	heap := flag.Uint64("heap", 1<<26, "heap bytes")
	stack := flag.Uint64("stack", 1<<20, "stack bytes per thread")
	mem := flag.Uint64("mem", 1<<28, "physical memory bytes")
	jsonOut := flag.Bool("json", false, "emit a machine-readable run report instead of text")
	traceFile := flag.String("trace", "", "write a Chrome trace_event file (open in Perfetto)")
	metricsFile := flag.String("metrics", "", "write the final metrics snapshot as JSON")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"functions compiled concurrently (1 = sequential; output is identical)")
	httpAddr := flag.String("http", "",
		"serve live telemetry (/metrics, /profile, /trace, /healthz, /readyz) on this address (e.g. 127.0.0.1:8080, :0 picks a port)")
	httpLinger := flag.Duration("http-linger", 0,
		"keep the -http server up this long after the run finishes")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: caratvm [flags] file.cir")
		flag.Usage()
		os.Exit(2)
	}

	cfg := vm.DefaultConfig()
	cfg.HeapBytes, cfg.StackBytes, cfg.MemBytes = *heap, *stack, *mem
	switch *mode {
	case "carat":
		cfg.Mode = vm.ModeCARAT
	case "traditional":
		cfg.Mode = vm.ModeTraditional
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	switch *mech {
	case "range":
		cfg.GuardMech = guard.MechRange
	case "mpx":
		cfg.GuardMech = guard.MechMPX
	case "iftree":
		cfg.GuardMech = guard.MechIfTree
	case "bsearch":
		cfg.GuardMech = guard.MechBinarySearch
	case "linear":
		cfg.GuardMech = guard.MechLinear
	default:
		fatal(fmt.Errorf("unknown mechanism %q", *mech))
	}

	lvl := map[string]passes.Level{
		"none": passes.LevelNone, "guards": passes.LevelGuardsOnly,
		"guards-opt": passes.LevelGuardsOpt, "carat": passes.LevelTracking,
		"tracking-only": passes.LevelTrackingOnly,
	}
	l, ok := lvl[*level]
	if !ok {
		fatal(fmt.Errorf("unknown level %q", *level))
	}

	var traceF *os.File
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		traceF = f
		cfg.Trace = obs.NewTracer(traceF, nil)
	}

	// One registry spans compile and run, so carat.passes.* metrics land
	// in the same -metrics / -json snapshot as the VM's counters.
	cfg.Obs = obs.NewRegistry()

	// The telemetry server comes up — and the bound address is printed —
	// before the module is even loaded, so scrapers can attach without
	// racing the run and the bind line never interleaves with results
	// (same contract as caratd's "listening on" line).
	var tele *telemetry.Server
	if *httpAddr != "" {
		cfg.Sampler = obs.NewSampler(0)
		tele = &telemetry.Server{Registry: cfg.Obs, Sampler: cfg.Sampler, Tracer: cfg.Trace}
		addr, err := tele.Start(*httpAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "caratvm: telemetry on http://%s\n", addr)
		defer func() {
			time.Sleep(*httpLinger)
			tele.Close()
		}()
	}

	m, err := loadModule(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	c, err := core.NewCompiler(l)
	if err != nil {
		fatal(err)
	}
	c.Workers = *workers
	c.Obs = cfg.Obs
	res, err := c.Compile(m)
	if err != nil {
		fatal(err)
	}
	v, ret, err := core.NewSystem(c, cfg).Run(res)
	if err != nil {
		fatal(err)
	}
	if tele != nil {
		// The run is over: final metrics and the full profile are now
		// scrapeable, which /readyz signals to automation.
		tele.SetReady(true)
	}

	if cfg.Trace != nil {
		if err := cfg.Trace.Close(); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
		if err := traceF.Close(); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
	}
	if *metricsFile != "" {
		f, err := os.Create(*metricsFile)
		if err != nil {
			fatal(err)
		}
		werr := v.Obs().WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fatal(fmt.Errorf("metrics: %w", werr))
		}
	}

	if *jsonOut {
		rep := runReport{
			Schema:  runSchema,
			Version: runVersion,
			Module:  m.Name,
			Exit:    ret,
			Instrs:  v.Instrs,
			Cycles:  v.Cycles,
			CPI:     float64(v.Cycles) / float64(v.Instrs),
			Profile: v.Prof,
			Metrics: v.Obs().Snapshot(),
			Output:  v.Output,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}

	for _, out := range v.Output {
		fmt.Println(out)
	}
	fmt.Fprintf(os.Stderr, "exit: %d\n", ret)
	fmt.Fprintf(os.Stderr, "instrs: %d, cycles: %d (CPI %.2f)\n",
		v.Instrs, v.Cycles, float64(v.Cycles)/float64(v.Instrs))
	fmt.Fprintf(os.Stderr, "guards: %d checks\n", v.GuardChecks)
	rs := v.Runtime().Stats
	fmt.Fprintf(os.Stderr, "tracking: %d allocs, %d frees, %d escape events\n",
		rs.Allocs.Get(), rs.Frees.Get(), rs.EscapeEvents.Get())
	if h := v.Hierarchy(); h != nil {
		fmt.Fprintf(os.Stderr, "tlb: %.3f DTLB MPKI, %d walks (avg %.1f cyc)\n",
			h.DTLBMPKI(v.Instrs), h.Stats.Walks.Get(), h.AvgWalkCycles())
	}
}

// loadModule reads a program: .cc files are CARAT-C source, anything else
// is textual IR.
func loadModule(path string) (*ir.Module, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".cc") {
		return cc.Compile(strings.TrimSuffix(filepath.Base(path), ".cc"), string(src))
	}
	return ir.Parse(string(src))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "caratvm:", err)
	os.Exit(1)
}
