// Command validatejson checks that stdin (or each file argument) is valid
// JSON and, when the document carries a "schema" field, that the schema is
// one this repo produces at a supported version. The Makefile smoke target
// pipes caratbench -json output through it and points it at the files the
// telemetry endpoints serve.
//
// carat.profile documents additionally get a structural check: the folded
// stacks must reconcile with the document's own totals (see
// internal/obs/sampler.go).
//
// With -prom, each input is validated as Prometheus text exposition format
// (version 0.0.4) instead of JSON: what the /metrics telemetry endpoint
// serves.
//
// Usage:
//
//	caratbench -exp all -json | go run ./scripts/validatejson
//	go run ./scripts/validatejson trace.json metrics.json
//	go run ./scripts/validatejson -prom smoke_metrics.prom
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"carat/internal/mmpolicy"
	"carat/internal/runtime"
)

// supported maps known schema names to the highest version this tool
// understands (kept in sync with the constants in internal/obs,
// internal/bench, and scripts/soak). carat.soak.result v2 renamed the pause
// legs' fields (legacy_*/incremental_* -> unbounded_*/bounded_*) and made
// them unconditional.
var supported = map[string]int{
	"carat.bench.result":  2,
	"carat.vm.run":        1,
	"carat.metrics":       1,
	"carat.trace":         1,
	"carat.policy":        2,
	"carat.soak.result":   2,
	"carat.profile":       1,
	"carat.server.result": 1,
	"carat.server.load":   1,
}

func main() {
	prom := flag.Bool("prom", false, "validate Prometheus text exposition format instead of JSON")
	flag.Parse()
	check := validate
	if *prom {
		check = validateProm
	}
	if flag.NArg() == 0 {
		if err := check("stdin", os.Stdin); err != nil {
			fmt.Fprintln(os.Stderr, "validatejson:", err)
			os.Exit(1)
		}
		fmt.Println("stdin: ok")
		return
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "validatejson:", err)
			os.Exit(1)
		}
		err = check(path, f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "validatejson:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok\n", path)
	}
}

// decodeStrict decodes data into the producer's own document type,
// rejecting fields the producer does not declare: the Go struct is the one
// schema declaration, so a renamed or misspelled field fails here instead
// of silently zeroing a check.
func decodeStrict(schema string, data []byte, doc interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(doc); err != nil {
		return fmt.Errorf("%s: %w", schema, err)
	}
	return nil
}

func validate(name string, r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	var doc struct {
		Schema  string `json:"schema"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: not valid JSON: %w", name, err)
	}
	if doc.Schema == "" {
		return nil // plain JSON without a schema header is fine
	}
	max, ok := supported[doc.Schema]
	if !ok {
		return fmt.Errorf("%s: unknown schema %q", name, doc.Schema)
	}
	if doc.Version < 1 || doc.Version > max {
		return fmt.Errorf("%s: schema %s version %d unsupported (max %d)",
			name, doc.Schema, doc.Version, max)
	}
	if c, ok := structural[doc.Schema]; ok && doc.Version >= c.since {
		if err := c.check(data); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// structural maps a schema to its structural check and the first version
// the check applies to.
var structural = map[string]struct {
	since int
	check func(data []byte) error
}{
	"carat.profile":     {1, validateProfile},
	"carat.server.load": {1, validateServerLoad},
	"carat.policy":      {2, validatePolicy},
}

// validatePolicy structurally checks a carat.policy v2 document: the
// first-class pause_p99_cycles column must agree with the embedded
// pause_cycles histogram (and be zero when no pauses were recorded), and
// a recorded pause budget must not have been blown (budgets below the
// minimum batch clamp to MinMoveBatch, so the enforced bound — not the
// raw budget — is what the max is held to).
func validatePolicy(data []byte) error {
	var doc mmpolicy.Document
	if err := decodeStrict("carat.policy", data, &doc); err != nil {
		return err
	}
	if doc.PauseCycles == nil || doc.PauseCycles.Count == 0 {
		if doc.PauseP99Cycles != 0 {
			return fmt.Errorf("carat.policy: pause_p99_cycles %.0f with no recorded pauses", doc.PauseP99Cycles)
		}
		return nil
	}
	if doc.PauseP99Cycles != doc.PauseCycles.P99 {
		return fmt.Errorf("carat.policy: pause_p99_cycles %.0f disagrees with pause_cycles.p99 %.0f",
			doc.PauseP99Cycles, doc.PauseCycles.P99)
	}
	if doc.PauseBudgetCycles > 0 {
		bound := runtime.PauseBound(runtime.BatchForBudget(doc.PauseBudgetCycles))
		if doc.PauseCycles.Max > bound {
			return fmt.Errorf("carat.policy: pause max %d over the enforced bound %d (budget %d)",
				doc.PauseCycles.Max, bound, doc.PauseBudgetCycles)
		}
	}
	return nil
}

// validateServerLoad structurally checks a carat.server.load document:
// every leg's outcome counts must sum to its attempts, latency quantiles
// must be ordered, and the cache hit rate must be a valid fraction.
func validateServerLoad(data []byte) error {
	var doc struct {
		Sessions int `json:"sessions"`
		Legs     []struct {
			Name      string `json:"name"`
			Requests  uint64 `json:"requests"`
			OK        uint64 `json:"ok"`
			Rejected  uint64 `json:"rejected_429"`
			Failed    uint64 `json:"failed"`
			LatencyMS struct {
				P50 float64 `json:"p50"`
				P99 float64 `json:"p99"`
			} `json:"latency_ms"`
		} `json:"legs"`
		ModuleCache struct {
			HitRate float64 `json:"hit_rate"`
		} `json:"module_cache"`
		DigestMismatches *uint64 `json:"digest_mismatches"`
		PauseCycles      *struct {
			Count uint64  `json:"count"`
			P50   float64 `json:"p50"`
			P95   float64 `json:"p95"`
			P99   float64 `json:"p99"`
		} `json:"pause_cycles"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("carat.server.load: %w", err)
	}
	if doc.Sessions <= 0 {
		return fmt.Errorf("carat.server.load: sessions must be positive")
	}
	if len(doc.Legs) == 0 {
		return fmt.Errorf("carat.server.load: no legs")
	}
	for _, leg := range doc.Legs {
		if leg.Name == "" {
			return fmt.Errorf("carat.server.load: leg without a name")
		}
		if leg.OK+leg.Rejected+leg.Failed != leg.Requests {
			return fmt.Errorf("carat.server.load: leg %q: ok+rejected_429+failed = %d, requests says %d",
				leg.Name, leg.OK+leg.Rejected+leg.Failed, leg.Requests)
		}
		if leg.OK > 0 && leg.LatencyMS.P50 > leg.LatencyMS.P99 {
			return fmt.Errorf("carat.server.load: leg %q: p50 %.3f > p99 %.3f",
				leg.Name, leg.LatencyMS.P50, leg.LatencyMS.P99)
		}
	}
	if doc.ModuleCache.HitRate < 0 || doc.ModuleCache.HitRate > 1 {
		return fmt.Errorf("carat.server.load: hit_rate %f outside [0,1]", doc.ModuleCache.HitRate)
	}
	if doc.DigestMismatches == nil {
		return fmt.Errorf("carat.server.load: digest_mismatches missing")
	}
	if p := doc.PauseCycles; p != nil {
		if p.Count == 0 {
			return fmt.Errorf("carat.server.load: pause_cycles present with zero count")
		}
		if p.P50 > p.P95 || p.P95 > p.P99 {
			return fmt.Errorf("carat.server.load: pause quantiles unordered: p50 %.0f, p95 %.0f, p99 %.0f",
				p.P50, p.P95, p.P99)
		}
	}
	return nil
}

// validateProfile structurally checks a carat.profile document: the folded
// stacks must sum to total_samples, and so must the per-phase totals.
func validateProfile(data []byte) error {
	var doc struct {
		IntervalCycles uint64 `json:"interval_cycles"`
		Tracks         int    `json:"tracks"`
		TotalSamples   uint64 `json:"total_samples"`
		Stacks         []struct {
			Stack   string `json:"stack"`
			Phase   string `json:"phase"`
			Samples uint64 `json:"samples"`
		} `json:"stacks"`
		PhaseTotals map[string]uint64 `json:"phase_totals"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("carat.profile: %w", err)
	}
	if doc.IntervalCycles == 0 {
		return fmt.Errorf("carat.profile: interval_cycles is zero")
	}
	var stackSum uint64
	for _, s := range doc.Stacks {
		if s.Phase == "" {
			return fmt.Errorf("carat.profile: stack %q has no phase", s.Stack)
		}
		stackSum += s.Samples
	}
	if stackSum != doc.TotalSamples {
		return fmt.Errorf("carat.profile: stacks sum to %d samples, total_samples says %d",
			stackSum, doc.TotalSamples)
	}
	var phaseSum uint64
	for _, n := range doc.PhaseTotals {
		phaseSum += n
	}
	if phaseSum != doc.TotalSamples {
		return fmt.Errorf("carat.profile: phase_totals sum to %d samples, total_samples says %d",
			phaseSum, doc.TotalSamples)
	}
	return nil
}

// validateProm checks Prometheus text exposition format: every non-comment
// line must be `name[{labels}] value`, every sample must follow a # TYPE
// header for its family, and histogram families must end their bucket
// series with le="+Inf".
func validateProm(name string, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	typed := map[string]string{} // family -> counter|gauge|histogram
	samples := 0
	lineNo := 0
	sawInf := map[string]bool{}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				typed[fields[2]] = fields[3]
			}
			continue
		}
		metric, value, ok := splitPromSample(line)
		if !ok {
			return fmt.Errorf("%s:%d: malformed sample %q", name, lineNo, line)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("%s:%d: bad value %q: %v", name, lineNo, value, err)
		}
		family := metric
		if i := strings.IndexByte(metric, '{'); i >= 0 {
			family = metric[:i]
			if metric[len(metric)-1] != '}' {
				return fmt.Errorf("%s:%d: unterminated label set in %q", name, lineNo, metric)
			}
			if strings.Contains(metric[i:], `le="+Inf"`) {
				sawInf[family] = true
			}
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(family,
			"_bucket"), "_sum"), "_count")
		if _, ok := typed[family]; !ok {
			if _, ok := typed[base]; !ok {
				return fmt.Errorf("%s:%d: sample %q has no # TYPE header", name, lineNo, family)
			}
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for fam, typ := range typed {
		if typ == "histogram" && !sawInf[fam+"_bucket"] {
			return fmt.Errorf("%s: histogram %s has no le=\"+Inf\" bucket", name, fam)
		}
	}
	if samples == 0 {
		return fmt.Errorf("%s: no samples", name)
	}
	return nil
}

// splitPromSample splits a sample line into metric (with any label set)
// and value, tolerating spaces inside quoted label values.
func splitPromSample(line string) (metric, value string, ok bool) {
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			if i == 0 || line[i-1] != '\\' {
				inQuote = !inQuote
			}
		case ' ':
			if !inQuote {
				rest := strings.TrimSpace(line[i:])
				// A trailing timestamp is legal; keep only the value.
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				return line[:i], rest, rest != ""
			}
		}
	}
	return "", "", false
}
