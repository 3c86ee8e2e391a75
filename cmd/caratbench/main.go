// Command caratbench regenerates the paper's tables and figures from the
// simulated system (see DESIGN.md's experiment index).
//
// Usage:
//
//	caratbench -exp all                 # every experiment, test scale
//	caratbench -exp fig2 -scale small   # one figure at paper scale
//	caratbench -exp table3 -only canneal,mcf_s
//	caratbench -exp table3 -json        # machine-readable document on stdout
//	caratbench -exp table3 -trace t.json -metrics m.json
//	caratbench -exp defrag -policy p.json
//	caratbench -exp all -http 127.0.0.1:0 -http-linger 30s
//
// -json replaces the text tables with one versioned JSON document
// (bench.Document; see DESIGN.md "Observability"). -trace
// writes a Chrome trace_event file viewable in Perfetto; -metrics writes
// the final metrics-registry snapshot. -policy writes the decision log of
// the last policy-daemon experiment (defrag, tiering, policy) as an
// mmpolicy.Document.
//
// -http serves live telemetry while the experiments run: /metrics
// (Prometheus text), /profile (cycle-sampling profiler), /trace?sec=N
// (windowed trace capture), /healthz, and /readyz (503 until the
// experiments finish). The bound address is printed to stderr; with
// -http-linger the server stays up that long after the run so scrapers
// can collect final state.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"carat/internal/bench"
	"carat/internal/fault"
	"carat/internal/mmpolicy"
	"carat/internal/obs"
	"carat/internal/obs/telemetry"
	"carat/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or \"all\"")
	scale := flag.String("scale", "test", "problem scale: "+strings.Join(workload.ScaleNames, ", "))
	only := flag.String("only", "", "comma-separated benchmark subset (default: all 22)")
	list := flag.Bool("list", false, "list experiments and benchmarks, then exit")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON document instead of text tables")
	traceFile := flag.String("trace", "", "write a Chrome trace_event file (open in Perfetto)")
	metricsFile := flag.String("metrics", "", "write the final metrics snapshot as JSON")
	policyFile := flag.String("policy", "", "write the policy daemon's decision log as JSON")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"worker-pool width for per-workload experiment legs (1 = sequential)")
	faults := flag.String("faults", "",
		"inject faults into policy experiments: seed:rate sets every injection point to rate (e.g. 42:0.01)")
	httpAddr := flag.String("http", "",
		"serve live telemetry (/metrics, /profile, /trace, /healthz, /readyz) on this address (e.g. 127.0.0.1:8080, :0 picks a port)")
	httpLinger := flag.Duration("http-linger", 0,
		"keep the -http server up this long after the experiments finish")
	flag.Parse()

	if *list {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-11s %s\n", e.ID, e.Title)
		}
		fmt.Println("benchmarks:")
		for _, w := range workload.All() {
			fmt.Printf("  %-14s [%s] %s\n", w.Name, w.Suite, w.Desc)
		}
		return
	}

	sc, err := workload.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "caratbench:", err)
		os.Exit(2)
	}

	o := bench.DefaultOptions(sc)
	o.Workers = *workers
	if *only != "" {
		o.Only = strings.Split(*only, ",")
	}
	if *jsonOut || *metricsFile != "" || *httpAddr != "" {
		o.Obs = obs.NewRegistry()
	}
	if *httpAddr != "" {
		o.Sampler = obs.NewSampler(0)
	}

	var policyDoc *mmpolicy.Document
	if *policyFile != "" {
		o.PolicySink = func(doc *mmpolicy.Document) { policyDoc = doc }
	}

	if *faults != "" {
		seed, rate, err := fault.ParseSpec(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "caratbench:", err)
			os.Exit(2)
		}
		o.Fault = fault.New(seed, o.Obs)
		for _, p := range fault.Points {
			o.Fault.SetRate(p, rate)
		}
	}

	var traceClose func() error
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "caratbench:", err)
			os.Exit(1)
		}
		o.Trace = obs.NewTracer(f, nil)
		o.Fault.SetTracer(o.Trace) // nil-safe when -faults is unset
		traceClose = func() error {
			if err := o.Trace.Close(); err != nil {
				return err
			}
			return f.Close()
		}
	}

	// Bind and print the address before any experiment starts, so the
	// bind line never interleaves with result output and harnesses can
	// scrape the port immediately (same contract as caratvm and caratd).
	var tele *telemetry.Server
	if *httpAddr != "" {
		tele = &telemetry.Server{Registry: o.Obs, Sampler: o.Sampler, Tracer: o.Trace}
		addr, err := tele.Start(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "caratbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "caratbench: telemetry on http://%s\n", addr)
	}

	if *jsonOut {
		err = bench.RunJSON(*exp, o, os.Stdout)
	} else {
		err = bench.RunByID(*exp, o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "caratbench:", err)
		os.Exit(1)
	}
	if tele != nil {
		// Experiments are done: final metrics and the full profile are now
		// scrapeable, which /readyz signals to automation.
		tele.SetReady(true)
	}

	if traceClose != nil {
		if err := traceClose(); err != nil {
			fmt.Fprintln(os.Stderr, "caratbench: trace:", err)
			os.Exit(1)
		}
	}
	if *metricsFile != "" {
		f, err := os.Create(*metricsFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "caratbench:", err)
			os.Exit(1)
		}
		werr := o.Obs.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "caratbench: metrics:", werr)
			os.Exit(1)
		}
	}
	if *policyFile != "" {
		if policyDoc == nil {
			fmt.Fprintln(os.Stderr, "caratbench: -policy set but no policy experiment ran (use -exp defrag, tiering, policy, or all)")
			os.Exit(1)
		}
		f, err := os.Create(*policyFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "caratbench:", err)
			os.Exit(1)
		}
		werr := policyDoc.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "caratbench: policy:", werr)
			os.Exit(1)
		}
	}
	if tele != nil {
		time.Sleep(*httpLinger)
		tele.Close()
	}
}
