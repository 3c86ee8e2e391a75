package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	hostrt "runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Load report schema identifiers (see DESIGN.md "Observability"). Bump
// LoadVersion on any incompatible field change.
const (
	LoadSchema  = "carat.server.load"
	LoadVersion = 1
)

// LoadDocument is the carat.server.load report RunLoad writes: one leg per
// load shape, plus the server-side counters scraped after both.
type LoadDocument struct {
	Schema             string    `json:"schema"`
	Version            int       `json:"version"`
	Target             string    `json:"target"`
	Sessions           int       `json:"sessions"`
	RequestsPerSession int       `json:"requests_per_session"`
	Modules            int       `json:"modules"`
	Legs               []LoadLeg `json:"legs"`
	ModuleCache        struct {
		Hits      uint64  `json:"hits"`
		Misses    uint64  `json:"misses"`
		Evictions uint64  `json:"evictions"`
		HitRate   float64 `json:"hit_rate"`
	} `json:"module_cache"`
	AdmissionRejections uint64 `json:"admission_rejections"`
	InvariantViolations uint64 `json:"invariant_violations"`
	DigestMismatches    uint64 `json:"digest_mismatches"`
	// PeakInflight is the server's lifetime high-water mark of concurrently
	// executing runs (carat_server_inflight_peak): >1 proves tenant
	// executions actually overlapped instead of silently serializing.
	PeakInflight uint64  `json:"peak_inflight"`
	GOMAXPROCS   int     `json:"gomaxprocs"` // load-generator-side host parallelism
	WallMS       float64 `json:"wall_ms"`
	// PauseCycles (compatible v1 addition) is present when the final
	// /metrics scrape saw any world-stop pauses.
	PauseCycles *PauseSummary `json:"pause_cycles,omitempty"`
}

// LoadLeg is one leg's outcome. Requests counts attempts, rejected and
// failed ones included.
type LoadLeg struct {
	Name          string         `json:"name"`
	Requests      uint64         `json:"requests"`
	OK            uint64         `json:"ok"`
	Rejected429   uint64         `json:"rejected_429"`
	Failed        uint64         `json:"failed"`
	ThroughputRPS float64        `json:"throughput_rps"`
	LatencyMS     LatencySummary `json:"latency_ms"`
	WallMS        float64        `json:"wall_ms"`
}

// LatencySummary is a leg's client-side latency quantiles in milliseconds.
type LatencySummary struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// PauseSummary is the tenant-visible bounded-pause tail, scraped from the
// server's merged carat_runtime_pause_cycles histogram: modeled cycles per
// world-stop window across every tenant run (and the ballast service).
type PauseSummary struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Validate checks the report against itself: every leg's outcomes sum to
// its attempts and its latency quantiles are ordered, the cache hit rate
// is a fraction, and a pause tail, when present, is non-empty and ordered.
func (doc *LoadDocument) Validate() error {
	if doc.Sessions <= 0 {
		return fmt.Errorf("sessions must be positive")
	}
	if len(doc.Legs) == 0 {
		return fmt.Errorf("no legs")
	}
	for _, leg := range doc.Legs {
		if leg.Name == "" {
			return fmt.Errorf("leg without a name")
		}
		if n := leg.OK + leg.Rejected429 + leg.Failed; n != leg.Requests {
			return fmt.Errorf("leg %q: ok+rejected_429+failed = %d, requests says %d", leg.Name, n, leg.Requests)
		}
		if l := leg.LatencyMS; leg.OK > 0 && !(l.P50 <= l.P95 && l.P95 <= l.P99 && l.P99 <= l.Max) {
			return fmt.Errorf("leg %q: latency quantiles unordered: %+v", leg.Name, l)
		}
	}
	if r := doc.ModuleCache.HitRate; r < 0 || r > 1 {
		return fmt.Errorf("hit_rate %f outside [0,1]", r)
	}
	if p := doc.PauseCycles; p != nil && (p.Count == 0 || p.P50 > p.P95 || p.P95 > p.P99) {
		return fmt.Errorf("pause_cycles empty or unordered: %+v", *p)
	}
	return nil
}

// LoadConfig sizes RunLoad's two legs.
type LoadConfig struct {
	Sessions int // concurrent sessions in the steady leg
	Requests int // runs per session
	Modules  int // distinct modules in the mix
	Tenants  int // distinct tenant names
	Burst    int // concurrent one-shot requests in the overload leg
}

// RunLoad drives two legs against the caratd at base ("http://host:port")
// and returns their report. The steady leg runs cfg.Sessions concurrent
// sessions, each issuing cfg.Requests runs of its precompiled module by ref
// and retrying 429s after the advertised backoff, so every session
// completes. The overload leg sends a burst of one-shot requests over the
// in-flight cap, without retries. Every response's digest is checked
// against the first digest seen for its (module, seed). RunLoad fails only
// when it cannot set the legs up or scrape /metrics; judging the report is
// the caller's.
func RunLoad(base string, cfg LoadConfig) (*LoadDocument, error) {
	client := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 512,
			MaxConnsPerHost:     512,
		},
	}
	defer client.CloseIdleConnections()
	start := time.Now()

	// Precompile the module mix (plus the heavy overload module) so the
	// steady leg exercises the run-by-ref path and the module cache.
	refs := make([]string, cfg.Modules)
	for i := range refs {
		ref, err := postModule(client, base, loadModule(i), fmt.Sprintf("load-%d", i))
		if err != nil {
			return nil, fmt.Errorf("precompile module %d: %w", i, err)
		}
		refs[i] = ref
	}
	heavyRef, err := postModule(client, base, heavyLoadModule, "load-heavy")
	if err != nil {
		return nil, fmt.Errorf("precompile heavy module: %w", err)
	}

	digests := &digestTable{first: make(map[string]string)}
	doc := &LoadDocument{
		Schema:             LoadSchema,
		Version:            LoadVersion,
		Target:             base,
		Sessions:           cfg.Sessions,
		RequestsPerSession: cfg.Requests,
		Modules:            cfg.Modules,
	}
	doc.Legs = append(doc.Legs,
		runSteady(client, base, refs, cfg, digests),
		runOverload(client, base, heavyRef, cfg.Burst, digests))
	if err := scrapeMetrics(client, base, doc); err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	doc.DigestMismatches = digests.mismatches
	doc.GOMAXPROCS = hostrt.GOMAXPROCS(0)
	doc.WallMS = float64(time.Since(start).Microseconds()) / 1000
	return doc, nil
}

// digestTable records the first digest seen per (ref, seed) and counts
// divergences.
type digestTable struct {
	mu         sync.Mutex
	first      map[string]string
	mismatches uint64
}

func (d *digestTable) check(ref string, seed int64, digest string) {
	key := fmt.Sprintf("%s/%d", ref, seed)
	d.mu.Lock()
	defer d.mu.Unlock()
	if want, ok := d.first[key]; ok {
		if want != digest {
			d.mismatches++
		}
		return
	}
	d.first[key] = digest
}

// loadModule emits a deterministic CARAT-C workload for index i: heap
// buffer writes, a global accumulator table, and a printed checksum — no
// pointer values ever reach the output, so results are layout-independent.
func loadModule(i int) string {
	loops := 200 + (i%5)*150
	mult := 31 + 2*(i%11)
	bufLen := 64 + (i%3)*64
	return fmt.Sprintf(`
global table: [8]int;
func main(): int {
    var buf = malloc(8 * %d);
    var s = %d;
    for (var i = 0; i < %d; i = i + 1) {
        s = (s * %d + i) & 1048575;
        buf[i %% %d] = s;
        table[s & 7] = table[s & 7] + 1;
    }
    var t = 0;
    for (var i = 0; i < %d; i = i + 1) { t = t + buf[i]; }
    for (var b = 0; b < 8; b = b + 1) { print_int(table[b]); }
    free(buf);
    print_int(t);
    return t & 65535;
}`, bufLen, i+1, loops, mult, bufLen, bufLen)
}

// heavyLoadModule holds an in-flight slot long enough for the overload
// burst to pile up behind the admission cap.
const heavyLoadModule = `
func main(): int {
    var s = 7;
    for (var i = 0; i < 400000; i = i + 1) {
        s = (s * 31 + i) & 1048575;
    }
    print_int(s);
    return s;
}`

func runSteady(client *http.Client, base string, refs []string, cfg LoadConfig, digests *digestTable) LoadLeg {
	leg := LoadLeg{Name: "steady"}
	var mu sync.Mutex
	var lats []float64
	var wg sync.WaitGroup
	legStart := time.Now()
	for s := 0; s < cfg.Sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			mod := s % len(refs)
			req := runRequest{
				Tenant: fmt.Sprintf("tenant-%d", s%cfg.Tenants),
				Ref:    refs[mod],
				Seed:   int64(mod),
			}
			for r := 0; r < cfg.Requests; r++ {
				for attempt := 0; ; attempt++ {
					t0 := time.Now()
					status, body, retryAfter, err := postRun(client, base, req)
					mu.Lock()
					leg.Requests++
					mu.Unlock()
					if err != nil || (status != 200 && status != 429) {
						mu.Lock()
						leg.Failed++
						mu.Unlock()
						return
					}
					if status == 429 {
						mu.Lock()
						leg.Rejected429++
						mu.Unlock()
						time.Sleep(backoff(retryAfter, attempt))
						continue
					}
					lat := float64(time.Since(t0).Microseconds()) / 1000
					digests.check(req.Ref, req.Seed, body.Digest)
					mu.Lock()
					leg.OK++
					lats = append(lats, lat)
					mu.Unlock()
					break
				}
			}
		}(s)
	}
	wg.Wait()
	finishLeg(&leg, lats, time.Since(legStart))
	return leg
}

func runOverload(client *http.Client, base, heavyRef string, burst int, digests *digestTable) LoadLeg {
	leg := LoadLeg{Name: "overload"}
	var mu sync.Mutex
	var lats []float64
	var wg sync.WaitGroup
	legStart := time.Now()
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := runRequest{Tenant: fmt.Sprintf("burst-%d", i%4), Ref: heavyRef, Seed: 99}
			t0 := time.Now()
			status, body, _, err := postRun(client, base, req)
			lat := float64(time.Since(t0).Microseconds()) / 1000
			mu.Lock()
			defer mu.Unlock()
			leg.Requests++
			switch {
			case err != nil:
				leg.Failed++
			case status == 200:
				leg.OK++
				lats = append(lats, lat)
				digests.check(req.Ref, req.Seed, body.Digest)
			case status == 429:
				leg.Rejected429++
			default:
				leg.Failed++
			}
		}(i)
	}
	wg.Wait()
	finishLeg(&leg, lats, time.Since(legStart))
	return leg
}

// finishLeg fills a leg's wall time, throughput and latency quantiles.
func finishLeg(leg *LoadLeg, lats []float64, wall time.Duration) {
	leg.WallMS = float64(wall.Microseconds()) / 1000
	if wall > 0 {
		leg.ThroughputRPS = float64(leg.OK) / wall.Seconds()
	}
	if len(lats) == 0 {
		return
	}
	sort.Float64s(lats)
	q := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(lats)))) - 1
		return lats[max(0, min(i, len(lats)-1))]
	}
	leg.LatencyMS = LatencySummary{P50: q(0.50), P95: q(0.95), P99: q(0.99), Max: lats[len(lats)-1]}
}

func backoff(retryAfter string, attempt int) time.Duration {
	if sec, err := strconv.Atoi(retryAfter); err == nil && sec > 0 && attempt < 2 {
		// Honor short advertised backoffs early, then fall back to a
		// faster client-side retry so big fleets drain promptly.
		return time.Duration(min(sec, 1)) * 250 * time.Millisecond
	}
	return time.Duration(2<<min(attempt, 5)) * time.Millisecond
}

func postModule(client *http.Client, base, source, name string) (string, error) {
	body, _ := json.Marshal(runRequest{Source: source, Name: name, Tenant: "loadgen"})
	resp, err := client.Post(base+"/v1/modules", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var doc struct {
		Ref   string `json:"ref"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", err
	}
	if resp.StatusCode != 200 {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, doc.Error)
	}
	return doc.Ref, nil
}

func postRun(client *http.Client, base string, req runRequest) (int, RunResult, string, error) {
	body, _ := json.Marshal(req)
	resp, err := client.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, RunResult{}, "", err
	}
	defer resp.Body.Close()
	var doc RunResult
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil && err != io.EOF {
		return resp.StatusCode, RunResult{}, "", err
	}
	return resp.StatusCode, doc, resp.Header.Get("Retry-After"), nil
}

// pauseFamily is the Prometheus-mangled name of the pause histogram
// (carat.runtime.pause_cycles) whose bucket series scrapeMetrics parses.
const pauseFamily = "carat_runtime_pause_cycles"

// bucketQuantile resolves quantile p from a cumulative bucket series the
// way the server does: the upper bound of the first bucket holding the
// target rank. bounds and cums are parallel, in ascending le order.
func bucketQuantile(bounds []float64, cums []uint64, count uint64, p float64) float64 {
	if count == 0 || len(bounds) == 0 {
		return 0
	}
	target := max(uint64(math.Ceil(p*float64(count))), 1)
	for i, c := range cums {
		if c >= target {
			return bounds[i]
		}
	}
	return bounds[len(bounds)-1]
}

// scrapeMetrics pulls the counters the document reports from /metrics
// (Prometheus text form; names are dot-to-underscore mangled), plus the
// pause histogram's bucket series for the tenant-visible pause tail.
func scrapeMetrics(client *http.Client, base string, doc *LoadDocument) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	vals := map[string]float64{}
	var pauseBounds []float64
	var pauseCums []uint64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Contains(line, "{") {
			// The only labeled series we care about: the pause histogram's
			// cumulative buckets, in ascending le order as served.
			rest, ok := strings.CutPrefix(line, pauseFamily+`_bucket{le="`)
			if !ok {
				continue
			}
			le, val, ok := strings.Cut(rest, `"} `)
			if !ok || le == "+Inf" { // _count carries the total
				continue
			}
			bound, berr := strconv.ParseFloat(le, 64)
			cum, cerr := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
			if berr == nil && cerr == nil {
				pauseBounds = append(pauseBounds, bound)
				pauseCums = append(pauseCums, cum)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			vals[fields[0]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if count := uint64(vals[pauseFamily+"_count"]); count > 0 {
		doc.PauseCycles = &PauseSummary{
			Count: count,
			Sum:   uint64(vals[pauseFamily+"_sum"]),
			P50:   bucketQuantile(pauseBounds, pauseCums, count, 0.50),
			P95:   bucketQuantile(pauseBounds, pauseCums, count, 0.95),
			P99:   bucketQuantile(pauseBounds, pauseCums, count, 0.99),
		}
	}
	doc.ModuleCache.Hits = uint64(vals["carat_server_module_cache_hits"])
	doc.ModuleCache.Misses = uint64(vals["carat_server_module_cache_misses"])
	doc.ModuleCache.Evictions = uint64(vals["carat_server_module_cache_evictions"])
	if total := doc.ModuleCache.Hits + doc.ModuleCache.Misses; total > 0 {
		doc.ModuleCache.HitRate = float64(doc.ModuleCache.Hits) / float64(total)
	}
	doc.AdmissionRejections = uint64(vals["carat_server_admission_rejections"])
	doc.InvariantViolations = uint64(vals["carat_server_invariant_violations"])
	doc.PeakInflight = uint64(vals["carat_server_inflight_peak"])
	return nil
}
