// Command soak runs seeded chaos soak tests: multi-process
// churn/defrag/tiering/swap workloads under randomized fault schedules
// (see internal/fault). For every seed it runs the identical workload
// TWICE and requires the two runs to be byte-identical — same final
// cycle count, same metrics snapshot, same policy decision log, same
// physical-memory checksum — and requires the harness integrity check
// and the allocation-table invariants to hold. A failure therefore comes
// with its reproducer: the seed.
//
// Usage:
//
//	go run ./scripts/soak -seeds 32              # seeds 1..32
//	go run ./scripts/soak -seeds 32 -start 97    # rotating window (CI)
//	go run ./scripts/soak -seed 17 -steps 400    # replay one seed
//	go run ./scripts/soak -seed 17 -trace t.json # with a Chrome trace
//	go run ./scripts/soak -seeds 8 -out soak.json
//
// The report is mmpolicy.SoakDocument as JSON (validated by
// scripts/validatejson). Exit status is nonzero if any
// seed failed, and the failing seeds' replay commands are printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"carat/internal/mmpolicy"
	"carat/internal/obs"
)

func main() {
	seeds := flag.Int("seeds", 8, "number of consecutive seeds to soak")
	start := flag.Int64("start", 1, "first seed (CI rotates this nightly)")
	one := flag.Int64("seed", 0, "run exactly this seed (overrides -seeds/-start)")
	steps := flag.Int("steps", 400, "workload rounds per run")
	out := flag.String("out", "", "write the JSON soak report here")
	traceFile := flag.String("trace", "", "write a Chrome trace of the first run of the first seed")
	flag.Parse()

	first, count := *start, *seeds
	if *one != 0 {
		first, count = *one, 1
	}

	var tr *obs.Tracer
	var traceClose func() error
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "soak:", err)
			os.Exit(1)
		}
		tr = obs.NewTracer(f, nil)
		traceClose = func() error {
			if err := tr.Close(); err != nil {
				return err
			}
			return f.Close()
		}
	}

	doc := mmpolicy.SoakDocument{Schema: mmpolicy.SoakSchema, Version: mmpolicy.SoakVersion, Steps: *steps}
	for i := 0; i < count; i++ {
		seed := first + int64(i)
		var seedTr *obs.Tracer
		if i == 0 {
			seedTr = tr // only the first seed's first run is traced
		}
		res := mmpolicy.SoakSeed(seed, *steps, seedTr)
		doc.Seeds = append(doc.Seeds, res)
		if res.Error == "" && res.ReplayIdentical {
			doc.Passed++
			fmt.Printf("seed %4d: ok    cycles=%d injected=%d rollbacks=%d retries=%d pins=%d pause_p99=%.0f\n",
				seed, res.Cycles, res.Injected, res.Rollbacks, res.Retries, res.Pins, res.PauseP99)
		} else {
			doc.Failed++
			fmt.Printf("seed %4d: FAIL  %s\n", seed, res.Error)
		}
	}

	if traceClose != nil {
		if err := traceClose(); err != nil {
			fmt.Fprintln(os.Stderr, "soak: trace:", err)
			os.Exit(1)
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "soak:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		werr := enc.Encode(&doc)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "soak:", werr)
			os.Exit(1)
		}
	}

	fmt.Printf("soak: %d passed, %d failed (seeds %d..%d, %d steps)\n",
		doc.Passed, doc.Failed, first, first+int64(count)-1, *steps)
	if doc.Failed > 0 {
		for _, s := range doc.Seeds {
			if s.Error != "" || !s.ReplayIdentical {
				fmt.Printf("replay: go run ./scripts/soak -seed %d -steps %d -trace seed%d.trace.json\n",
					s.Seed, *steps, s.Seed)
			}
		}
		os.Exit(1)
	}
}
