package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
)

// hotProgram is the i-th program of a small population shaped like the
// cached requests caratd serves most: two to four functions, one of them
// storing heap pointers into a global (escapes the runtime tracks), main
// folding them together and printing the result. salt changes main's seed
// and so the source text, which is what makes a program novel.
func hotProgram(i, salt int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "global keep%d: [4]ptr;\n", i)
	fmt.Fprintf(&sb, "func f0(x: int): int {\n")
	fmt.Fprintf(&sb, "    for (var i = 0; i < 4; i = i + 1) { var q = malloc(32); q[0] = (x + i * %d) & 65535; keep%d[i] = q; }\n", 2*i+3, i)
	fmt.Fprintf(&sb, "    var s = 0;\n")
	fmt.Fprintf(&sb, "    for (var i = 0; i < 4; i = i + 1) { var q = keep%d[i]; s = (s + q[0]) & 65535; free(q); }\n", i)
	fmt.Fprintf(&sb, "    return s;\n}\n")
	n := 2 + i%3
	for f := 1; f < n; f++ {
		fmt.Fprintf(&sb, "func f%d(x: int): int {\n    var s = x & 65535;\n", f)
		fmt.Fprintf(&sb, "    for (var i = 0; i < %d; i = i + 1) { s = (s * %d + i) & 65535; }\n    return s;\n}\n", 8+4*f, 2*(i+f)+5)
	}
	fmt.Fprintf(&sb, "func main(): int {\n    var acc = %d;\n", 7*i+13*salt+1)
	for f := 0; f < n; f++ {
		fmt.Fprintf(&sb, "    acc = (acc ^ f%d(acc)) & 65535;\n", f)
	}
	sb.WriteString("    print_int(acc);\n    return acc;\n}\n")
	return sb.String()
}

// memWriter is a reusable in-memory http.ResponseWriter: a hot-request
// measurement should see the server's allocations, not a recorder's.
type memWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// hotServer is a server with the hot population compiled and its Programs
// built (a module's Program appears at its first cache hit), so every later
// request for one of them is a cached, hot request.
type hotServer struct {
	s      *Server
	h      http.Handler
	bodies [][]byte
	w      *memWriter
}

const hotPopulation = 8

func newHotServer(tb testing.TB) *hotServer {
	tb.Helper()
	cfg := DefaultServerConfig()
	cfg.Ballast.Disabled = true
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s.StartBackground()
	hs := &hotServer{s: s, h: s.Handler(), w: &memWriter{hdr: http.Header{}}}
	for i := 0; i < hotPopulation; i++ {
		body, err := json.Marshal(runRequest{Tenant: "hot", Kind: "cc", Name: fmt.Sprintf("hot%d", i), Source: hotProgram(i, 0)})
		if err != nil {
			tb.Fatal(err)
		}
		hs.bodies = append(hs.bodies, body)
		for k := 0; k < 2; k++ {
			hs.serve(tb, i)
		}
	}
	return hs
}

// serve runs request i%hotPopulation through the handler, with no socket.
func (hs *hotServer) serve(tb testing.TB, i int) {
	r, err := http.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(hs.bodies[i%hotPopulation]))
	if err != nil {
		tb.Fatal(err)
	}
	hs.w.code = http.StatusOK
	hs.w.body.Reset()
	hs.h.ServeHTTP(hs.w, r)
	if hs.w.code != http.StatusOK {
		tb.Fatalf("hot request %d: status %d: %s", i, hs.w.code, hs.w.body.String())
	}
}

// BenchmarkHotRequest is the cost of a cached request: decode, admit,
// resolve from the module cache, load the shared Program into a fresh
// capsule, run the guest, publish its metrics, release, encode.
func BenchmarkHotRequest(b *testing.B) {
	hs := newHotServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs.serve(b, i)
	}
}

// TestHotRequestAllocs pins what a cached request allocates. Before the run
// owned its counters a request built, snapshotted and merged a private
// metrics registry: 300 allocations each in this harness.
func TestHotRequestAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin")
	}
	hs := newHotServer(t)
	i := 0
	got := testing.AllocsPerRun(64, func() {
		hs.serve(t, i)
		i++
	})
	const bound = 225
	t.Logf("%.1f allocations per hot request (bound %d)", got, bound)
	if got > bound {
		t.Errorf("a hot request makes %.1f allocations, want at most %d", got, bound)
	}
}

// goldenScript drives a fresh server through one of each kind of request
// whose metrics the golden pins: a novel compile, its first and second cache
// hits, a second novel program from another tenant, a run that exhausts its
// cycle budget (422) and one refused by a page quota (429).
func goldenScript(t *testing.T, url string) {
	t.Helper()
	steps := []struct {
		req  runRequest
		code int
	}{
		{runRequest{Tenant: "a", Name: "hot0", Source: hotProgram(0, 0)}, http.StatusOK},
		{runRequest{Tenant: "a", Name: "hot0", Source: hotProgram(0, 0)}, http.StatusOK},
		{runRequest{Tenant: "a", Name: "hot0", Source: hotProgram(0, 0)}, http.StatusOK},
		{runRequest{Tenant: "b", Name: "sum", Source: progSum}, http.StatusOK},
		{runRequest{Tenant: "tiny", Name: "loop", Source: progLoop}, http.StatusUnprocessableEntity},
		{runRequest{Tenant: "small", Name: "chain", Source: progChain}, http.StatusTooManyRequests},
	}
	for i, st := range steps {
		resp, doc := post(t, url+"/v1/run", st.req)
		if resp.StatusCode != st.code {
			t.Fatalf("step %d: status %d, want %d: %v", i, resp.StatusCode, st.code, doc)
		}
	}
}

// wallTime reports whether a metric measures host time, which no golden can
// pin.
func wallTime(name string) bool {
	return name == "carat.server.request_ns" || name == "carat.passes.compile_wall_ns"
}

// dumpMetrics prints every series of a registry snapshot but the wall-time
// ones, one per line, sorted.
func dumpMetrics(s *Server) string {
	snap := s.reg.Snapshot()
	var lines []string
	for name, v := range snap.Counters {
		if !wallTime(name) {
			lines = append(lines, fmt.Sprintf("counter %s %d", name, v))
		}
	}
	for name, v := range snap.Gauges {
		lines = append(lines, fmt.Sprintf("gauge %s %d", name, v))
	}
	for name, h := range snap.Histograms {
		if wallTime(name) {
			continue
		}
		line := fmt.Sprintf("histogram %s count=%d sum=%d min=%d max=%d", name, h.Count, h.Sum, h.Min, h.Max)
		for _, b := range h.Buckets {
			line += fmt.Sprintf(" le%d:%d", b.Le, b.Count)
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestServerMetricsGolden pins every series a fixed request script leaves in
// the server's registry, and its value: the run's metrics reach /metrics
// exactly as they did when each request published through a private
// registry merged afterwards (testdata/server_metrics_golden.txt was recorded
// that way). No series may appear or vanish; gauges included.
func TestServerMetricsGolden(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = map[string]Quota{
		"tiny":  {MaxConcurrent: 16, MaxPages: 1 << 14, MaxCycles: 1000},
		"small": {MaxConcurrent: 16, MaxPages: 16, MaxCycles: 5_000_000_000},
	}
	s, ts := newTestServer(t, cfg)
	goldenScript(t, ts.URL)
	got := dumpMetrics(s)
	want, err := os.ReadFile("testdata/server_metrics_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}

// TestConcurrentTenantsShareOneRegistry: eight clients, two tenants, cached
// and novel programs, one server. Every response must carry the digest a
// serial run of the same (module, seed) produces — a run's counters start
// at zero however many others publish into the same registry — and the
// registry's guest totals must be exactly the sums of the responses.
func TestConcurrentTenantsShareOneRegistry(t *testing.T) {
	const clients, perClient = 8, 25
	// Request k of client c: mostly the hot population, every fifth a
	// program no one else asks for.
	reqFor := func(c, k int) runRequest {
		tenant := fmt.Sprintf("tenant-%d", c%2)
		if k%5 == 4 {
			return runRequest{Tenant: tenant, Name: fmt.Sprintf("novel-%d-%d", c, k), Source: hotProgram(k%hotPopulation, 1+c*perClient+k), Seed: int64(k)}
		}
		i := (c + k) % hotPopulation
		return runRequest{Tenant: tenant, Name: fmt.Sprintf("hot%d", i), Source: hotProgram(i, 0), Seed: int64(i)}
	}

	_, serial := newTestServer(t, testConfig())
	want := make(map[string]string)
	for c := 0; c < clients; c++ {
		for k := 0; k < perClient; k++ {
			req := reqFor(c, k)
			key := req.Name + "/" + fmt.Sprint(req.Seed)
			if _, ok := want[key]; ok {
				continue
			}
			resp, doc := post(t, serial.URL+"/v1/run", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("serial %s: status %d: %v", key, resp.StatusCode, doc["error"])
			}
			want[key] = doc["digest"].(string)
		}
	}

	s, ts := newTestServer(t, testConfig())
	var (
		mu            sync.Mutex
		instrs, guard uint64
		wg            sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				req := reqFor(c, k)
				resp, doc := post(t, ts.URL+"/v1/run", req)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d request %d: status %d: %v", c, k, resp.StatusCode, doc["error"])
					return
				}
				key := req.Name + "/" + fmt.Sprint(req.Seed)
				if got := doc["digest"].(string); got != want[key] {
					t.Errorf("%s: digest %s under concurrency, %s serially", key, got, want[key])
				}
				mu.Lock()
				instrs += uint64(doc["instrs"].(float64))
				guard += uint64(doc["guard_checks"].(float64))
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if got := s.reg.Counter("carat.vm.instrs").Get(); got != instrs {
		t.Errorf("carat.vm.instrs = %d, responses sum to %d", got, instrs)
	}
	if got := s.reg.Counter("carat.vm.guard_checks").Get(); got != guard {
		t.Errorf("carat.vm.guard_checks = %d, responses sum to %d", got, guard)
	}
}
