// Command loadgen drives concurrent mixed-workload sessions against a
// running caratd and emits a carat.server.load v1 document.
//
// Two legs run back to back:
//
//   - steady: N concurrent sessions, each issuing R runs of its module
//     (modules are precompiled via /v1/modules and run by ref). 429s are
//     retried after the advertised backoff, so every session completes;
//     the rejection count measures how often admission control engaged.
//   - overload: a burst of one-shot requests over the server's in-flight
//     cap, no retries. This leg MUST see nonzero 429s — it is the proof
//     that admission control sheds load instead of degrading everyone.
//
// Every response's digest is checked against the first digest seen for
// its (module, seed): any divergence means the server's isolation story
// is broken, and loadgen exits nonzero.
//
//	caratd -config configs/caratd.sample.json &
//	go run ./scripts/loadgen -addr localhost:9321 -sessions 1000 -out BENCH_server.load.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	hostrt "runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type runReq struct {
	Tenant string `json:"tenant"`
	Ref    string `json:"ref,omitempty"`
	Seed   int64  `json:"seed"`
}

// pauseSummary is the tenant-visible bounded-pause tail, scraped from the
// server's merged carat_runtime_pause_cycles histogram: modeled cycles per
// world-stop window across every tenant run (and the ballast service).
type pauseSummary struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

type latencySummary struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

type legResult struct {
	Name          string         `json:"name"`
	Requests      uint64         `json:"requests"` // attempts, incl. rejected + failed
	OK            uint64         `json:"ok"`
	Rejected429   uint64         `json:"rejected_429"`
	Failed        uint64         `json:"failed"`
	ThroughputRPS float64        `json:"throughput_rps"`
	LatencyMS     latencySummary `json:"latency_ms"`
	WallMS        float64        `json:"wall_ms"`
}

type loadDoc struct {
	Schema             string      `json:"schema"`
	Version            int         `json:"version"`
	Target             string      `json:"target"`
	Sessions           int         `json:"sessions"`
	RequestsPerSession int         `json:"requests_per_session"`
	Modules            int         `json:"modules"`
	Legs               []legResult `json:"legs"`
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
	GOMAXPROCS   int     `json:"gomaxprocs"` // loadgen-side host parallelism
	WallMS       float64 `json:"wall_ms"`
	// PauseCycles (compatible v1 addition) is present when the final
	// /metrics scrape saw any world-stop pauses.
	PauseCycles *pauseSummary `json:"pause_cycles,omitempty"`
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

// genModule emits a deterministic CARAT-C workload for index i: heap
// buffer writes, a global accumulator table, and a printed checksum — no
// pointer values ever reach the output, so results are layout-independent.
func genModule(i int) string {
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

// heavyModule holds an in-flight slot long enough for the overload burst
// to pile up behind the admission cap.
const heavyModule = `
func main(): int {
    var s = 7;
    for (var i = 0; i < 400000; i = i + 1) {
        s = (s * 31 + i) & 1048575;
    }
    print_int(s);
    return s;
}`

func main() {
	var (
		addr     = flag.String("addr", "", "caratd address (host:port), required")
		sessions = flag.Int("sessions", 1000, "concurrent sessions in the steady leg")
		requests = flag.Int("requests", 3, "runs per session")
		mods     = flag.Int("mods", 6, "distinct modules in the mix")
		tenants  = flag.Int("tenants", 8, "distinct tenant names")
		burst    = flag.Int("burst", 192, "concurrent one-shot requests in the overload leg")
		out      = flag.String("out", "", "write the carat.server.load document here (default stdout)")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -addr is required")
		os.Exit(2)
	}
	if err := run(*addr, *sessions, *requests, *mods, *tenants, *burst, *out); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 512,
			MaxConnsPerHost:     512,
		},
	}
}

func run(addr string, sessions, requests, mods, tenants, burst int, out string) error {
	base := "http://" + addr
	client := newClient()
	start := time.Now()

	// Precompile the module mix (plus the heavy overload module) so the
	// steady leg exercises the run-by-ref path and the module cache.
	refs := make([]string, mods)
	for i := 0; i < mods; i++ {
		ref, err := postModule(client, base, genModule(i), fmt.Sprintf("load-%d", i))
		if err != nil {
			return fmt.Errorf("precompile module %d: %w", i, err)
		}
		refs[i] = ref
	}
	heavyRef, err := postModule(client, base, heavyModule, "load-heavy")
	if err != nil {
		return fmt.Errorf("precompile heavy module: %w", err)
	}

	digests := &digestTable{first: make(map[string]string)}

	doc := loadDoc{
		Schema:             "carat.server.load",
		Version:            1,
		Target:             base,
		Sessions:           sessions,
		RequestsPerSession: requests,
		Modules:            mods,
	}

	steady := runSteady(client, base, refs, sessions, requests, tenants, digests)
	doc.Legs = append(doc.Legs, steady)

	over := runOverload(client, base, heavyRef, burst, digests)
	doc.Legs = append(doc.Legs, over)

	if err := scrapeMetrics(client, base, &doc); err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	doc.DigestMismatches = digests.mismatches
	doc.GOMAXPROCS = hostrt.GOMAXPROCS(0)
	doc.WallMS = float64(time.Since(start).Microseconds()) / 1000

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		os.Stdout.Write(data) //nolint:errcheck
	} else if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}

	// Hard assertions: these are the load test's pass/fail criteria.
	var failures []string
	if steady.Failed > 0 || over.Failed > 0 {
		failures = append(failures, fmt.Sprintf("%d requests failed outright", steady.Failed+over.Failed))
	}
	if steady.OK != uint64(sessions)*uint64(requests) {
		failures = append(failures, fmt.Sprintf("steady leg completed %d/%d runs", steady.OK, sessions*requests))
	}
	if over.Rejected429 == 0 {
		failures = append(failures, "overload leg saw zero 429s — admission control never engaged")
	}
	if doc.DigestMismatches > 0 {
		failures = append(failures, fmt.Sprintf("%d digest mismatches — results depended on concurrency", doc.DigestMismatches))
	}
	if doc.InvariantViolations > 0 {
		failures = append(failures, fmt.Sprintf("%d invariant violations on the server", doc.InvariantViolations))
	}
	// Concurrency assertion: with many sessions in flight the server must
	// have actually overlapped executions. A peak of 0 or 1 means every
	// run was serialized — historically this passed silently (e.g. the
	// daemon pinned to one core, or a global lock around Run).
	if sessions > 1 && doc.PeakInflight < 2 {
		failures = append(failures, fmt.Sprintf(
			"peak inflight %d with %d concurrent sessions — the server serialized every run",
			doc.PeakInflight, sessions))
	}
	if len(failures) > 0 {
		return fmt.Errorf("%s", strings.Join(failures, "; "))
	}
	fmt.Fprintf(os.Stderr, "loadgen: ok — %d sessions, %.0f req/s steady, %d overload 429s, cache hit rate %.3f\n",
		sessions, steady.ThroughputRPS, over.Rejected429, doc.ModuleCache.HitRate)
	return nil
}

func runSteady(client *http.Client, base string, refs []string, sessions, requests, tenants int, digests *digestTable) legResult {
	leg := legResult{Name: "steady"}
	var mu sync.Mutex
	var lats []float64
	var wg sync.WaitGroup
	legStart := time.Now()
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			mod := s % len(refs)
			req := runReq{
				Tenant: fmt.Sprintf("tenant-%d", s%tenants),
				Ref:    refs[mod],
				Seed:   int64(mod),
			}
			for r := 0; r < requests; r++ {
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
	wall := time.Since(legStart)
	leg.WallMS = float64(wall.Microseconds()) / 1000
	if wall > 0 {
		leg.ThroughputRPS = float64(leg.OK) / wall.Seconds()
	}
	leg.LatencyMS = summarize(lats)
	return leg
}

func runOverload(client *http.Client, base, heavyRef string, burst int, digests *digestTable) legResult {
	leg := legResult{Name: "overload"}
	var mu sync.Mutex
	var lats []float64
	var wg sync.WaitGroup
	legStart := time.Now()
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := runReq{Tenant: fmt.Sprintf("burst-%d", i%4), Ref: heavyRef, Seed: 99}
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
	wall := time.Since(legStart)
	leg.WallMS = float64(wall.Microseconds()) / 1000
	if wall > 0 {
		leg.ThroughputRPS = float64(leg.OK) / wall.Seconds()
	}
	leg.LatencyMS = summarize(lats)
	return leg
}

func backoff(retryAfter string, attempt int) time.Duration {
	if sec, err := strconv.Atoi(retryAfter); err == nil && sec > 0 && attempt < 2 {
		// Honor short advertised backoffs early, then fall back to a
		// faster client-side retry so big fleets drain promptly.
		if sec > 1 {
			sec = 1
		}
		return time.Duration(sec) * 250 * time.Millisecond
	}
	d := time.Duration(2<<min(attempt, 5)) * time.Millisecond
	return d
}

type runResp struct {
	Digest string `json:"digest"`
}

func postModule(client *http.Client, base, source, name string) (string, error) {
	body, _ := json.Marshal(map[string]any{"source": source, "name": name, "tenant": "loadgen"})
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

func postRun(client *http.Client, base string, req runReq) (int, runResp, string, error) {
	body, _ := json.Marshal(req)
	resp, err := client.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, runResp{}, "", err
	}
	defer resp.Body.Close()
	var doc runResp
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil && err != io.EOF {
		return resp.StatusCode, runResp{}, "", err
	}
	return resp.StatusCode, doc, resp.Header.Get("Retry-After"), nil
}

func summarize(lats []float64) latencySummary {
	if len(lats) == 0 {
		return latencySummary{}
	}
	sort.Float64s(lats)
	q := func(p float64) float64 {
		i := int(math.Ceil(p*float64(len(lats)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	return latencySummary{P50: q(0.50), P95: q(0.95), P99: q(0.99), Max: lats[len(lats)-1]}
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
	target := uint64(math.Ceil(p * float64(count)))
	if target == 0 {
		target = 1
	}
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
func scrapeMetrics(client *http.Client, base string, doc *loadDoc) error {
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
		doc.PauseCycles = &pauseSummary{
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
