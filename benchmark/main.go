// Command benchmark is the repository's benchmark: four workloads, each
// reporting end-to-end metrics in reference-host time and, with -trace,
// per-layer metrics from spans recorded around the calls into each package.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// document is the full output: one JSON document naming every metric with
// its unit and the samples behind it.
type document struct {
	Schema     string            `json:"schema"`
	Version    int               `json:"version"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	CalRefMS   float64           `json:"cal_ref_ms"`
	Workloads  []*workloadReport `json:"workloads"`
}

// resultLine is the last line of standard output: what a driver reads.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// joinTraceArg lets -trace be written as a switch (-trace) or with a value
// in the next argument (--trace 1), which the flag package does not accept
// for a boolean.
func joinTraceArg(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workloadFlag := fs.String("workload", "", "workload to run ("+strings.Join(workloadNames, ", ")+"); empty runs all four")
	seed := fs.Int64("seed", 1, "seed of the input generators")
	seconds := fs.Float64("seconds", 30, "length of each workload's timed phase")
	trace := fs.Bool("trace", false, "add the traced cycle and report per-layer metrics; writes benchmark.trace.json")
	aa := fs.Int("aa", 0, "self-check: run each workload as two interleaved sets of N runs and compare their medians")
	golden := fs.String("write-golden", "", "run the suite kernels on the reference interpreter and write golden.json to this path")
	fs.Parse(joinTraceArg(os.Args[1:])) //nolint:errcheck // ExitOnError

	if err := run(*workloadFlag, *seed, *seconds, *trace, *aa, *golden); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workloadFlag string, seed int64, seconds float64, trace bool, aa int, golden string) error {
	if golden != "" {
		return writeGolden(golden)
	}
	names := workloadNames
	if workloadFlag != "" {
		names = []string{workloadFlag}
	}
	if aa > 0 {
		return selfCheck(names, seed, seconds, aa)
	}
	doc := document{
		Schema: "carat.benchmark", Version: 1,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: seed, Seconds: seconds, Trace: trace, CalRefMS: calRefNS / 1e6,
	}
	line := resultLine{Correct: true, Metrics: map[string]lineMetric{}}
	type namedTrace struct {
		Workload string     `json:"workload"`
		Ops      []opRecord `json:"ops"`
		Spans    []span     `json:"spans"`
	}
	var traces []namedTrace
	start := processStart
	for _, name := range names {
		rep, tr, err := runWorkload(name, runOpts{
			seed: seed, duration: time.Duration(seconds * float64(time.Second)), trace: trace, firstStart: start,
		})
		if err != nil {
			return err
		}
		start = time.Time{} // only the first workload's set-up starts at process start
		doc.Workloads = append(doc.Workloads, rep)
		line.Attempted += rep.OpsAttempted
		line.Failed += rep.OpsFailed
		prefix := ""
		if len(names) > 1 {
			prefix = name + "."
		}
		ms := rep.EndToEnd
		if trace {
			ms = rep.PerLayer
			traces = append(traces, namedTrace{name, tr.ops, tr.spans})
		}
		for k, v := range ms {
			line.Metrics[prefix+k] = lineMetric{v.Value, v.Unit}
		}
	}
	line.Correct = line.Failed == 0
	if trace {
		f, err := os.Create("benchmark.trace.json")
		if err != nil {
			return err
		}
		err = json.NewEncoder(f).Encode(traces)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", out, last)
	if !line.Correct {
		return fmt.Errorf("%d of %d ops failed", line.Failed, line.Attempted)
	}
	return nil
}
