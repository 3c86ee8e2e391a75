// Package telemetry is the embeddable HTTP export surface of the obs
// layer: live Prometheus metrics, folded-stack cycle profiles, windowed
// trace capture, and health/readiness probes. caratvm and caratbench
// mount it behind a -http flag; the planned caratd server will embed the
// same handler per tenant.
//
// Endpoints:
//
//	/metrics   Prometheus text exposition (version 0.0.4) of every
//	           counter, gauge, and histogram in the registry
//	/profile   obs.ProfileDoc JSON (default) or raw folded stacks
//	           with ?format=folded — flamegraph.pl-compatible
//	/trace     an obs.TraceDoc holding the events emitted during a
//	           ?sec=N host-time window (requires an attached tracer)
//	/healthz   liveness: always 200 once the server is up
//	/readyz    readiness: 503 until the host process calls SetReady —
//	           lets scripts poll for "experiments finished" before
//	           scraping final numbers
//
// Everything is read-only and safe to scrape mid-run: metrics are atomic
// snapshots, profiles aggregate lock-free sample buckets, and the trace
// window taps the event stream without touching the trace file.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"carat/internal/obs"
)

// Server serves telemetry for one registry/sampler/tracer triple. Only
// Registry is required; nil Sampler disables /profile content (it serves
// an empty profile) and nil Tracer makes /trace report 503.
type Server struct {
	Registry *obs.Registry
	Sampler  *obs.Sampler
	Tracer   *obs.Tracer

	ready atomic.Bool

	mu   sync.Mutex
	ln   net.Listener
	http *http.Server
}

// SetReady flips the /readyz probe: false (the initial state) answers
// 503, true answers 200.
func (s *Server) SetReady(ok bool) { s.ready.Store(ok) }

// Handler returns the telemetry mux, for embedding into a larger server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/profile", s.handleProfile)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// Listener timeouts, so a client that trickles its headers cannot hold a
// goroutine forever. No write timeout: /trace?sec=N answers after N seconds.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Start binds addr (e.g. "localhost:9100" or ":0") and serves in a
// background goroutine. It returns the bound address, so callers using
// port 0 can discover the real port.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	s.mu.Lock()
	s.ln, s.http = ln, srv
	s.mu.Unlock()
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return ln.Addr().String(), nil
}

// Close stops the listener. In-flight requests are not drained — the
// process is exiting anyway.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.http
	s.http, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.Registry == nil {
		return
	}
	WritePrometheus(w, s.Registry.Snapshot())
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	sampler := s.Sampler
	if sampler == nil {
		sampler = obs.NewSampler(0) // an empty profile
	}
	doc := sampler.Snapshot()
	if r.URL.Query().Get("format") == "folded" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		doc.WriteFolded(w) //nolint:errcheck // best-effort over HTTP
		return
	}
	w.Header().Set("Content-Type", "application/json")
	doc.WriteJSON(w) //nolint:errcheck // best-effort over HTTP
}

// maxTraceWindow bounds /trace capture so a bad query can't pin the tap
// (and its per-event callback cost) on the hot path indefinitely.
const maxTraceWindow = 30 * time.Second

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.Tracer == nil {
		http.Error(w, "no tracer attached (run with -trace or telemetry tracing)", http.StatusServiceUnavailable)
		return
	}
	sec := 1.0
	if q := r.URL.Query().Get("sec"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil || v <= 0 {
			http.Error(w, "sec must be a positive number", http.StatusBadRequest)
			return
		}
		sec = v
	}
	window := time.Duration(sec * float64(time.Second))
	if window > maxTraceWindow {
		window = maxTraceWindow
	}

	var mu sync.Mutex
	var events []string
	s.Tracer.SetTap(func(body string) {
		mu.Lock()
		events = append(events, body)
		mu.Unlock()
	})
	select {
	case <-time.After(window):
	case <-r.Context().Done():
	}
	s.Tracer.SetTap(nil)

	w.Header().Set("Content-Type", "application/json")
	mu.Lock()
	defer mu.Unlock()
	fmt.Fprint(w, obs.TraceHeader())
	for i, body := range events {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprint(w, "\n{", body, "}")
	}
	fmt.Fprint(w, obs.TraceFooter())
}

// WritePrometheus renders a registry snapshot in the Prometheus text
// exposition format. Metric names translate by replacing every character
// outside [a-zA-Z0-9_:] with '_' (so carat.vm.instrs becomes
// carat_vm_instrs); histograms emit the classic cumulative _bucket
// series ending in le="+Inf", plus _sum and _count. Output is sorted by
// name, so scrapes of an idle process are byte-stable.
func WritePrometheus(w interface{ Write([]byte) (int, error) }, snap obs.Snapshot) {
	var b strings.Builder

	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, snap.Counters[name])
	}

	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", pn, pn, snap.Gauges[name])
	}

	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		var cum uint64
		for _, bk := range h.Buckets {
			cum += bk.Count
			fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n", pn, promLe(bk.Le), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		fmt.Fprintf(&b, "%s_sum %d\n", pn, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", pn, h.Count)
	}

	w.Write([]byte(b.String())) //nolint:errcheck // best-effort over HTTP
}

// promName maps a dotted registry name to a legal Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLe renders a bucket upper bound. The top log2 bucket's bound is
// MaxUint64, which exceeds float64 precision — render it as +Inf's
// predecessor in decimal to keep le values strictly increasing.
func promLe(le uint64) string {
	if le == ^uint64(0) {
		return strconv.FormatFloat(math.MaxFloat64, 'g', -1, 64)
	}
	return strconv.FormatUint(le, 10)
}

// ValidatePrometheus checks text exposition format as WritePrometheus
// writes it: every sample line is `name[{labels}] value`, follows a # TYPE
// header for its family, and every histogram family ends its bucket series
// with le="+Inf".
func ValidatePrometheus(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	typed := map[string]string{} // family -> counter|gauge|histogram
	sawInf := map[string]bool{}
	samples := 0
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) >= 4 && f[1] == "TYPE" {
				typed[f[2]] = f[3]
			}
			continue
		}
		metric, value, ok := splitPromSample(line)
		if !ok {
			return fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("line %d: bad value %q: %v", lineNo, value, err)
		}
		family := metric
		if i := strings.IndexByte(metric, '{'); i >= 0 {
			family = metric[:i]
			if metric[len(metric)-1] != '}' {
				return fmt.Errorf("line %d: unterminated label set in %q", lineNo, metric)
			}
			sawInf[family] = sawInf[family] || strings.Contains(metric[i:], `le="+Inf"`)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(family, "_bucket"), "_sum"), "_count")
		if typed[family] == "" && typed[base] == "" {
			return fmt.Errorf("line %d: sample %q has no # TYPE header", lineNo, family)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for fam, typ := range typed {
		if typ == "histogram" && !sawInf[fam+"_bucket"] {
			return fmt.Errorf("histogram %s has no le=\"+Inf\" bucket", fam)
		}
	}
	if samples == 0 {
		return fmt.Errorf("no samples")
	}
	return nil
}

// splitPromSample splits a sample line into metric (with any label set)
// and value, tolerating spaces inside quoted label values and dropping a
// trailing timestamp.
func splitPromSample(line string) (metric, value string, ok bool) {
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch {
		case line[i] == '"' && (i == 0 || line[i-1] != '\\'):
			inQuote = !inQuote
		case line[i] == ' ' && !inQuote:
			value, _, _ = strings.Cut(strings.TrimSpace(line[i:]), " ")
			return line[:i], value, value != ""
		}
	}
	return "", "", false
}
