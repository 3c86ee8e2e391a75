package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// bounds are the end-to-end regression bounds; they must equal
// BENCHMARK.json's (TestNamesMatchBenchmarkJSON).
var bounds = map[string]float64{
	"setup_s": 0.25, "work_per_s": 0.15, "op_p50_ms": 0.15, "cold_p50_ms": 0.20,
	"alloc_kb_per_op": 0.05, "live_heap_mb": 0.05,
}

// selfCheck runs each workload as two interleaved sets of n runs of this
// same binary (A B A B ...), run i of either set with seed+i, and fails if
// the two sets' medians of any end-to-end metric differ by more than the
// metric's bound. It also prints each set's spread: the interquartile
// distance as a share of the median.
func selfCheck(names []string, seed int64, seconds float64, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := 0; s < 2; s++ {
				m, err := oneRun(exe, name, seed+int64(i), seconds)
				if err != nil {
					return fmt.Errorf("%s run %d%c: %w", name, i, 'A'+s, err)
				}
				for k, v := range m {
					sets[s][k] = append(sets[s][k], v.Value)
				}
			}
		}
		for _, d := range endToEndDefs {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			if worse < 0 {
				worse = -worse // either set may be the worse one
			}
			verdict := "ok"
			if worse > bounds[d.Name] {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("%-13s %-16s A %12.4f B %12.4f %-4s diff %5.1f%% (bound %2.0f%%) spread A %5.1f%% B %5.1f%%  %s\n",
				name, d.Name, ma, mb, d.Unit, 100*worse, 100*bounds[d.Name], 100*spread(a), 100*spread(b), verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("self-check: %d metric medians differ by more than their bound", bad)
	}
	return nil
}

// oneRun executes the binary once and parses the last line of its output.
func oneRun(exe, name string, seed int64, seconds float64) (map[string]lineMetric, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("%d of %d ops failed", line.Failed, line.Attempted)
	}
	return line.Metrics, nil
}
