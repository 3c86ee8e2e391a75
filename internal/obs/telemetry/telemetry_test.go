package telemetry

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"carat/internal/obs"
)

// startServer brings up a Server on a loopback port with a populated
// registry and sampler, returning the base URL and a cleanup.
func startServer(t *testing.T, tracer *obs.Tracer) (*obs.Registry, *obs.Sampler, *Server, string) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Counter("carat.vm.instrs").Add(12345)
	reg.Gauge("carat.kernel.free_pages").Set(512)
	h := reg.Histogram("carat.runtime.pause_cycles")
	for _, v := range []uint64{400, 455, 900, 6000, 6100} {
		h.Observe(v)
	}

	s := obs.NewSampler(100)
	tr := s.NewTrack()
	tr.Sample(500, func() string { return "main;hot" })
	tr.FoldPhase("move", 300)

	srv := &Server{Registry: reg, Sampler: s, Tracer: tracer}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return reg, s, srv, "http://" + addr
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestMetricsEndpoint(t *testing.T) {
	reg, _, _, base := startServer(t, nil)
	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type %q", ct)
	}
	// Every registered metric must appear under its Prometheus-mapped name.
	snap := reg.Snapshot()
	for name := range snap.Counters {
		if !strings.Contains(body, promName(name)) {
			t.Errorf("/metrics missing counter %s (as %s)", name, promName(name))
		}
	}
	for name := range snap.Gauges {
		if !strings.Contains(body, promName(name)) {
			t.Errorf("/metrics missing gauge %s (as %s)", name, promName(name))
		}
	}
	for name := range snap.Histograms {
		if !strings.Contains(body, promName(name)+"_bucket") {
			t.Errorf("/metrics missing histogram %s", name)
		}
	}
	for _, want := range []string{
		"# TYPE carat_vm_instrs counter",
		"carat_vm_instrs 12345",
		"# TYPE carat_kernel_free_pages gauge",
		"carat_kernel_free_pages 512",
		"# TYPE carat_runtime_pause_cycles histogram",
		`le="+Inf"`,
		"carat_runtime_pause_cycles_count 5",
		"# TYPE go_heap_alloc_bytes counter",
		"# TYPE go_heap_alloc_objects counter",
		"# TYPE go_heap_live_bytes gauge",
		"# TYPE go_gc_cycles counter",
		"# TYPE go_goroutines gauge",
		"# TYPE go_gc_pause_seconds histogram",
		`go_gc_pause_seconds_bucket{le="+Inf"}`,
		"go_gc_pause_seconds_count",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	if err := ValidatePrometheus(strings.NewReader(body)); err != nil {
		t.Errorf("/metrics is not valid exposition format: %v", err)
	}
}

// TestValidatePrometheusRefuses: each malformed exposition is refused.
func TestValidatePrometheusRefuses(t *testing.T) {
	for name, text := range map[string]string{
		"empty":             "",
		"no TYPE header":    "carat_x 1\n",
		"bad value":         "# TYPE carat_x counter\ncarat_x one\n",
		"no value":          "# TYPE carat_x counter\ncarat_x\n",
		"open label set":    "# TYPE carat_h histogram\ncarat_h_bucket{le=\"1\" 1\n",
		"histogram no +Inf": "# TYPE carat_h histogram\ncarat_h_bucket{le=\"1\"} 1\ncarat_h_count 1\n",
	} {
		if ValidatePrometheus(strings.NewReader(text)) == nil {
			t.Errorf("%s: accepted %q", name, text)
		}
	}
}

func TestProfileEndpoint(t *testing.T) {
	_, sampler, _, base := startServer(t, nil)
	code, body, _ := get(t, base+"/profile")
	if code != http.StatusOK {
		t.Fatalf("/profile status %d", code)
	}
	var doc obs.ProfileDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/profile not JSON: %v", err)
	}
	if doc.Schema != obs.ProfileSchema || doc.Version != obs.ProfileSchemaVersion {
		t.Errorf("schema header %s v%d", doc.Schema, doc.Version)
	}
	want := sampler.Snapshot()
	if doc.TotalSamples != want.TotalSamples {
		t.Errorf("total samples %d, sampler says %d", doc.TotalSamples, want.TotalSamples)
	}
	var sum uint64
	for _, fs := range doc.Stacks {
		sum += fs.Samples
	}
	if sum != doc.TotalSamples {
		t.Errorf("stacks sum to %d, total says %d", sum, doc.TotalSamples)
	}

	code, folded, _ := get(t, base+"/profile?format=folded")
	if code != http.StatusOK {
		t.Fatalf("/profile?format=folded status %d", code)
	}
	if !strings.Contains(folded, "exec;main;hot 5") || !strings.Contains(folded, "move 3") {
		t.Errorf("folded output unexpected:\n%s", folded)
	}
}

func TestProfileEndpointNoSampler(t *testing.T) {
	srv := &Server{Registry: obs.NewRegistry()}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body, _ := get(t, "http://"+addr+"/profile")
	if code != http.StatusOK {
		t.Fatalf("/profile status %d with no sampler", code)
	}
	var doc obs.ProfileDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("empty profile not JSON: %v", err)
	}
	if doc.TotalSamples != 0 {
		t.Errorf("empty profile has %d samples", doc.TotalSamples)
	}
	if err := doc.Validate(); err != nil {
		t.Errorf("empty profile: %v", err)
	}
}

func TestHealthAndReady(t *testing.T) {
	_, _, srv, base := startServer(t, nil)
	if code, body, _ := get(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, _, _ := get(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before SetReady = %d, want 503", code)
	}
	srv.SetReady(true)
	if code, _, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after SetReady = %d, want 200", code)
	}
}

// TestPprofBehindTheFlag: /debug/pprof/ answers only when Pprof is set.
func TestPprofBehindTheFlag(t *testing.T) {
	for _, on := range []bool{false, true} {
		srv := &Server{Registry: obs.NewRegistry(), Pprof: on}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		want := http.StatusNotFound
		if on {
			want = http.StatusOK
		}
		for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
			if code, _, _ := get(t, "http://"+addr+path); code != want {
				t.Errorf("Pprof=%v: %s = %d, want %d", on, path, code, want)
			}
		}
		srv.Close()
	}
}

func TestTraceEndpoint(t *testing.T) {
	tracer := obs.NewTracer(nil, nil) // sink-less: events exist only for taps
	_, _, _, base := startServer(t, tracer)

	type result struct {
		code int
		body string
	}
	ch := make(chan result, 1)
	go func() {
		code, body, _ := get(t, base+"/trace?sec=0.3")
		ch <- result{code, body}
	}()
	// Emit events while the capture window is open.
	time.Sleep(100 * time.Millisecond)
	tracer.Instant("checkpoint", "test", obs.Arg{Key: "n", Value: 1})
	tracer.Instant("checkpoint", "test", obs.Arg{Key: "n", Value: 2})

	r := <-ch
	if r.code != http.StatusOK {
		t.Fatalf("/trace status %d", r.code)
	}
	var doc struct {
		Schema      string            `json:"schema"`
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(r.body), &doc); err != nil {
		t.Fatalf("/trace output not JSON: %v\n%s", err, r.body)
	}
	if doc.Schema != "carat.trace" {
		t.Errorf("trace schema %q", doc.Schema)
	}
	if len(doc.TraceEvents) != 2 {
		t.Errorf("captured %d events, want 2", len(doc.TraceEvents))
	}
}

func TestTraceEndpointNoTracer(t *testing.T) {
	srv := &Server{Registry: obs.NewRegistry()}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, _, _ := get(t, "http://"+addr+"/trace"); code != http.StatusServiceUnavailable {
		t.Errorf("/trace with no tracer = %d, want 503", code)
	}
}

// TestSlowHeadersAreDisconnected: a scraper that sends half a request line
// and stalls is cut off once the header deadline passes.
func TestSlowHeadersAreDisconnected(t *testing.T) {
	srv := &Server{Registry: obs.NewRegistry()}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /metr")); err != nil {
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
