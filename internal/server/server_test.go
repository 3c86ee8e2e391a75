package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"carat/internal/kernel"
)

// Three deterministic CARAT-C workloads: heap writes, global histogram,
// printed output — everything the digest covers, no pointer printing.
const progSum = `
global acc: [8]int;
func main(): int {
    var buf = malloc(8 * 256);
    for (var i = 0; i < 256; i = i + 1) { buf[i] = i * 3; }
    var t = 0;
    for (var i = 0; i < 256; i = i + 1) {
        t = t + buf[i];
        acc[i & 7] = acc[i & 7] + buf[i];
    }
    for (var b = 0; b < 8; b = b + 1) { print_int(acc[b]); }
    free(buf);
    return t;
}`

const progChain = `
func main(): int {
    var a = malloc(8 * 64);
    var b = malloc(8 * 64);
    for (var i = 0; i < 64; i = i + 1) { a[i] = i; }
    for (var i = 0; i < 64; i = i + 1) { b[i] = a[63 - i] * 2; }
    var t = 0;
    for (var i = 0; i < 64; i = i + 1) { t = t + b[i]; }
    free(a);
    free(b);
    print_int(t);
    return t;
}`

const progLoop = `
func main(): int {
    var s = 1;
    for (var i = 0; i < 10000; i = i + 1) {
        s = (s * 31 + i) & 1048575;
    }
    print_int(s);
    return s;
}`

func testConfig() Config {
	cfg := DefaultServerConfig()
	cfg.MemBytes = 1 << 26  // 64 MB is plenty for tests
	cfg.HeapBytes = 1 << 20 // 1 MB capsules
	cfg.StackBytes = 1 << 17
	cfg.Ballast.Disabled = true
	return cfg
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.StartBackground()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, req any) (*http.Response, map[string]any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, doc
}

// TestRunDeterministicUnderConcurrency is the server's core promise: with
// the ballast mmpolicy daemon churning the same physical memory and many
// tenants running at once, identical (module, seed) requests produce
// byte-identical modeled results.
func TestRunDeterministicUnderConcurrency(t *testing.T) {
	cfg := testConfig()
	cfg.Ballast.Disabled = false
	cfg.Ballast.Pace = 50 * time.Microsecond
	s, ts := newTestServer(t, cfg)

	progs := []string{progSum, progChain, progLoop}
	const goroutines = 32
	const perG = 4
	digests := make([][]string, len(progs))
	for i := range digests {
		digests[i] = make([]string, 0, goroutines*perG)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				pi := (g + k) % len(progs)
				req := runRequest{
					Tenant: fmt.Sprintf("tenant-%d", g%4),
					Source: progs[pi],
					Name:   fmt.Sprintf("prog-%d", pi),
					Seed:   int64(pi),
				}
				for {
					resp, doc := post(t, ts.URL+"/v1/run", req)
					if resp.StatusCode == http.StatusTooManyRequests {
						time.Sleep(2 * time.Millisecond)
						continue
					}
					if resp.StatusCode != http.StatusOK {
						errCh <- fmt.Errorf("prog %d: status %d: %v", pi, resp.StatusCode, doc["error"])
						return
					}
					mu.Lock()
					digests[pi] = append(digests[pi], doc["digest"].(string))
					mu.Unlock()
					break
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for pi, ds := range digests {
		if len(ds) == 0 {
			t.Fatalf("prog %d: no successful runs", pi)
		}
		for _, d := range ds {
			if d != ds[0] {
				t.Fatalf("prog %d: digest diverged: %s vs %s", pi, d, ds[0])
			}
		}
	}
	if n, err := s.Drain(context.Background()); err != nil || n != 0 {
		t.Fatalf("drain: violations=%d err=%v", n, err)
	}
}

func TestModuleCachePrecompileAndRun(t *testing.T) {
	s, ts := newTestServer(t, testConfig())

	resp, doc := post(t, ts.URL+"/v1/modules", runRequest{Tenant: "a", Source: progSum, Name: "sum"})
	if resp.StatusCode != 200 {
		t.Fatalf("modules: status %d: %v", resp.StatusCode, doc["error"])
	}
	if doc["cached"] != false {
		t.Fatalf("first compile reported cached: %v", doc)
	}
	ref := doc["ref"].(string)

	resp, doc = post(t, ts.URL+"/v1/modules", runRequest{Tenant: "a", Source: progSum, Name: "sum"})
	if resp.StatusCode != 200 || doc["cached"] != true {
		t.Fatalf("second compile not a cache hit: %d %v", resp.StatusCode, doc)
	}

	resp, doc = post(t, ts.URL+"/v1/run", runRequest{Tenant: "a", Ref: ref})
	if resp.StatusCode != 200 {
		t.Fatalf("run by ref: status %d: %v", resp.StatusCode, doc["error"])
	}
	if doc["cached"] != true || doc["ref"] != ref {
		t.Fatalf("run by ref: %v", doc)
	}

	resp, _ = post(t, ts.URL+"/v1/run", runRequest{Tenant: "a", Ref: "deadbeef"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ref: status %d, want 404", resp.StatusCode)
	}

	if hits := s.reg.Counter("carat.server.module_cache.hits").Get(); hits < 2 {
		t.Fatalf("cache hits = %d, want >= 2", hits)
	}
	if misses := s.reg.Counter("carat.server.module_cache.misses").Get(); misses != 1 {
		t.Fatalf("cache misses = %d, want 1", misses)
	}
}

func TestModuleCacheEviction(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEntries = 2
	s, ts := newTestServer(t, cfg)

	refs := make([]string, 3)
	for i, src := range []string{progSum, progChain, progLoop} {
		resp, doc := post(t, ts.URL+"/v1/modules", runRequest{Source: src, Name: fmt.Sprintf("m%d", i)})
		if resp.StatusCode != 200 {
			t.Fatalf("compile %d: %v", i, doc["error"])
		}
		refs[i] = doc["ref"].(string)
	}
	if ev := s.reg.Counter("carat.server.module_cache.evictions").Get(); ev == 0 {
		t.Fatal("no evictions with CacheEntries=2 and 3 modules")
	}
	if s.cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", s.cache.Len())
	}
	// The first module was least recently used; its ref must be gone.
	resp, _ := post(t, ts.URL+"/v1/run", runRequest{Ref: refs[0]})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted ref: status %d, want 404", resp.StatusCode)
	}
}

func TestTenantPageQuota(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = map[string]Quota{
		"small": {MaxPages: 16}, // far below one capsule
	}
	s, ts := newTestServer(t, cfg)

	resp, doc := post(t, ts.URL+"/v1/run", runRequest{Tenant: "small", Source: progSum})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %v", resp.StatusCode, doc)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.reg.Counter("carat.server.quota_rejections").Get(); got == 0 {
		t.Fatal("quota_rejections not incremented")
	}
	// The failed load must not leak its partial reservation.
	if lp := s.tenantFor("small").LivePages(); lp != 0 {
		t.Fatalf("tenant leaked %d pages after rejected load", lp)
	}
}

func TestTenantCycleQuota(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = map[string]Quota{
		"tiny": {MaxCycles: 1000},
	}
	_, ts := newTestServer(t, cfg)

	resp, doc := post(t, ts.URL+"/v1/run", runRequest{Tenant: "tiny", Source: progLoop})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %v", resp.StatusCode, doc)
	}
}

func TestTenantConcurrencySlots(t *testing.T) {
	ten := &tenant{name: "x", quota: Quota{MaxConcurrent: 2}}
	if err := ten.acquireSlot(); err != nil {
		t.Fatal(err)
	}
	if err := ten.acquireSlot(); err != nil {
		t.Fatal(err)
	}
	if err := ten.acquireSlot(); !errors.Is(err, kernel.ErrQuota) {
		t.Fatalf("third slot: %v, want ErrQuota", err)
	}
	ten.releaseSlot()
	if err := ten.acquireSlot(); err != nil {
		t.Fatalf("slot after release: %v", err)
	}
}

func TestAdmissionWatermark(t *testing.T) {
	cfg := testConfig()
	cfg.HighWatermark = 0.000001 // page 0 alone is over it
	s, ts := newTestServer(t, cfg)

	resp, doc := post(t, ts.URL+"/v1/run", runRequest{Source: progSum})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %v", resp.StatusCode, doc)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("watermark 429 without Retry-After")
	}
	if got := s.reg.Counter("carat.server.admission_rejections").Get(); got == 0 {
		t.Fatal("admission_rejections not incremented")
	}
}

func TestDrainRejectsAndFlipsReadyz(t *testing.T) {
	s, ts := newTestServer(t, testConfig())

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("readyz before drain: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	if _, err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	rresp, doc := post(t, ts.URL+"/v1/run", runRequest{Source: progSum})
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run during drain: status %d: %v", rresp.StatusCode, doc)
	}
	if s.reg.Gauge("carat.server.drain_duration_ms").Get() == 0 {
		// Draining an idle server can round to 0ms; the gauge must at
		// least exist in the registry snapshot.
		if _, ok := s.reg.Snapshot().Gauges["carat.server.drain_duration_ms"]; !ok {
			t.Fatal("drain_duration_ms gauge missing")
		}
	}
}

// TestMemoryReturnedAfterRuns pins the teardown path: after any mix of
// successful runs the shared machine has every tenant page back and the
// tenants hold zero live pages.
func TestMemoryReturnedAfterRuns(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	before := s.kern.Alloc.FreePages()

	for i := 0; i < 10; i++ {
		src := []string{progSum, progChain, progLoop}[i%3]
		resp, doc := post(t, ts.URL+"/v1/run", runRequest{Tenant: "t", Source: src, Name: fmt.Sprintf("m%d", i%3)})
		if resp.StatusCode != 200 {
			t.Fatalf("run %d: status %d: %v", i, resp.StatusCode, doc["error"])
		}
	}

	if after := s.kern.Alloc.FreePages(); after != before {
		t.Fatalf("free pages: %d before, %d after — %d pages leaked",
			before, after, int64(before)-int64(after))
	}
	if lp := s.tenantFor("t").LivePages(); lp != 0 {
		t.Fatalf("tenant still holds %d pages", lp)
	}
}

// TestHostileModulesAreRefusedNotExecuted: the three modules under
// internal/ir/testdata/hostile parse as IR, and each used to reach an engine
// that panicked on the guest goroutine — where no handler's recover could
// catch it — killing the daemon and every tenant with it. ir.Verify refuses
// them now, so each gets a 4xx carrying the verifier's message from both
// endpoints, nothing leaks, and the next well-formed request is served.
func TestHostileModulesAreRefusedNotExecuted(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	owned, free := s.kern.OwnedPageCount(), s.kern.Alloc.FreePages()
	files, err := filepath.Glob("../ir/testdata/hostile/*.cir")
	if err != nil || len(files) != 3 {
		t.Fatalf("hostile modules: %v, %v", files, err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, endpoint := range []string{"/v1/run", "/v1/modules"} {
			resp, doc := post(t, ts.URL+endpoint, runRequest{Tenant: "t", Kind: "cir", Source: string(src)})
			msg, _ := doc["error"].(string)
			if resp.StatusCode < 400 || resp.StatusCode > 499 || !strings.Contains(msg, "ir: @main/^entry: ") {
				t.Errorf("%s to %s: status %d, error %q; want a 4xx with the verifier's message",
					filepath.Base(file), endpoint, resp.StatusCode, msg)
			}
		}
		resp, doc := post(t, ts.URL+"/v1/run", runRequest{Tenant: "t", Source: progLoop, Name: "loop"})
		if resp.StatusCode != 200 {
			t.Fatalf("after %s: a well-formed request got %d: %v", filepath.Base(file), resp.StatusCode, doc["error"])
		}
	}
	if got := s.kern.OwnedPageCount(); got != owned {
		t.Errorf("owned pages: %d before, %d after", owned, got)
	}
	if got := s.kern.Alloc.FreePages(); got != free {
		t.Errorf("free pages: %d before, %d after", free, got)
	}
	ten := s.tenantFor("t")
	ten.mu.Lock()
	defer ten.mu.Unlock()
	if ten.running != 0 || ten.pages != 0 {
		t.Errorf("tenant still holds %d slots and %d pages", ten.running, ten.pages)
	}
}

// progScribble fills three quarters of its capsule heap (scribbleBytes)
// with nonzero words; progFold ORs together the same span of a capsule it
// never wrote.
const scribbleBytes = 8 * 98304

const progScribble = `
func main(): int {
    var n = 98304;
    var buf = malloc(8 * n);
    for (var i = 0; i < n; i = i + 1) { buf[i] = 0 - 1 - i; }
    return buf[n - 1] & 1;
}`

const progFold = `
func main(): int {
    var n = 98304;
    var buf = malloc(8 * n);
    var t = 0;
    for (var i = 0; i < n; i = i + 1) { t = t | buf[i]; }
    return t;
}`

// TestTenantsNeverSeeEachOthersBytes is the property the grant-time scrub
// exists for, through the front door: the machine holds one capsule at a
// time, so the second tenant's capsule is the first one's frames, and the
// kernel now clears only the pages its dirty map names. The second tenant
// must fold its fresh heap to zero.
func TestTenantsNeverSeeEachOthersBytes(t *testing.T) {
	cfg := testConfig()
	cfg.MemBytes = cfg.HeapBytes + 64*kernel.PageSize
	s, ts := newTestServer(t, cfg)
	owned := s.kern.OwnedPageCount()

	resp, doc := post(t, ts.URL+"/v1/run", runRequest{Tenant: "alice", Source: progScribble, Name: "scribble"})
	if resp.StatusCode != 200 {
		t.Fatalf("alice: status %d: %v", resp.StatusCode, doc["error"])
	}
	// Freed frames keep their contents; without them the test proves nothing.
	img, err := s.kern.Mem.ReadAt(kernel.PageSize, s.kern.Mem.Size()-kernel.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if left := len(img) - bytes.Count(img, []byte{0}); left < scribbleBytes/2 {
		t.Fatalf("alice left only %d nonzero bytes behind", left)
	}

	granted, scrubbed := s.kern.Stats.PageAllocs.Get(), s.kern.Stats.PagesScrubbed.Get()
	resp, doc = post(t, ts.URL+"/v1/run", runRequest{Tenant: "bob", Source: progFold, Name: "fold"})
	if resp.StatusCode != 200 {
		t.Fatalf("bob: status %d: %v", resp.StatusCode, doc["error"])
	}
	if exit, _ := doc["exit"].(float64); exit != 0 {
		t.Errorf("bob folded a fresh capsule to %#x: he read alice's bytes", uint64(exit))
	}
	granted, scrubbed = s.kern.Stats.PageAllocs.Get()-granted, s.kern.Stats.PagesScrubbed.Get()-scrubbed
	if scrubbed < scribbleBytes/kernel.PageSize || scrubbed > granted {
		t.Errorf("bob's capsule: %d pages granted, %d scrubbed; alice dirtied at least %d of them",
			granted, scrubbed, scribbleBytes/kernel.PageSize)
	}
	if got := s.kern.OwnedPageCount(); got != owned {
		t.Errorf("owned pages: %d before, %d after", owned, got)
	}
}

// TestCompileCoalescing pins single-flight: concurrent identical sources
// compile once.
func TestCompileCoalescing(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := post(t, ts.URL+"/v1/modules", runRequest{Source: progChain, Name: "co"})
			if resp.StatusCode != 200 {
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if misses := s.reg.Counter("carat.server.module_cache.misses").Get(); misses != 1 {
		t.Fatalf("cache misses = %d, want 1 (single-flight)", misses)
	}
}

func TestMetricsExposedOnSameListener(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, doc := post(t, ts.URL+"/v1/run", runRequest{Source: progSum})
	if resp.StatusCode != 200 {
		t.Fatalf("run: %v", doc["error"])
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body) //nolint:errcheck
	body := buf.String()
	for _, want := range []string{
		"carat_server_requests_total",
		"carat_server_inflight",
		"carat_server_module_cache_misses",
		"carat_vm_instrs",
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Fatalf("/metrics missing %s\n%s", want, body[:min(len(body), 2000)])
		}
	}
}

// TestSlowHeadersAreDisconnected: a client that sends half a request line
// and then stalls is cut off once the header deadline passes, instead of
// holding a server goroutine for as long as it likes.
func TestSlowHeadersAreDisconnected(t *testing.T) {
	cfg := testConfig()
	cfg.Addr = "127.0.0.1:0"
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/ru")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)) //nolint:errcheck
	_, err = io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open %v after a half request line", time.Since(start))
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Errorf("disconnected after %v, before the %v header deadline", waited, readHeaderTimeout)
	}
}
