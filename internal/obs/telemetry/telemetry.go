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
//	/profile   carat.profile v1 JSON (default) or raw folded stacks
//	           with ?format=folded — flamegraph.pl-compatible
//	/trace     carat.trace v1 JSON holding the events emitted during a
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
	"fmt"
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
	var doc *obs.ProfileDoc
	if s.Sampler != nil {
		doc = s.Sampler.Snapshot()
	} else {
		doc = &obs.ProfileDoc{
			Schema:         obs.ProfileSchema,
			Version:        obs.ProfileSchemaVersion,
			Stacks:         []obs.FoldedStack{},
			PhaseTotals:    map[string]uint64{},
			IntervalCycles: obs.DefaultSampleInterval,
		}
	}
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
