// Package server implements caratd: a long-running multi-tenant CARAT
// execution service. Tenants POST source (CARAT-C or .cir IR) or a
// precompiled module reference; the server compiles through the standard
// pass pipeline (with an LRU compiled-module cache and a bounded compile
// worker pool), then executes each request as its own kernel.Process over
// ONE shared PhysMem — while the mmpolicy daemon runs as a true background
// service on the same machine, competing with tenant traffic for pages.
//
// Tenant processes load as dark capsules (§3): one contiguous region per
// request. Besides matching the paper's linkage model, this makes the
// guard cost of a run independent of where in physical memory the capsule
// landed — which is what keeps modeled results byte-identical for the
// same module no matter how many other tenants are running.
package server

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"carat/internal/cc"
	"carat/internal/core"
	"carat/internal/ir"
	"carat/internal/kernel"
	"carat/internal/obs"
	"carat/internal/obs/telemetry"
	"carat/internal/passes"
	"carat/internal/signing"
	"carat/internal/vm"
)

// Config configures a caratd instance.
type Config struct {
	// Addr is the listen address ("localhost:8080"; ":0" for an ephemeral
	// port).
	Addr string `json:"addr"`

	// MemBytes sizes the ONE physical memory every tenant shares.
	MemBytes uint64 `json:"mem_bytes"`
	// HeapBytes/StackBytes size each request's capsule heap and initial
	// stack (stacks are carved from the capsule heap).
	HeapBytes  uint64 `json:"heap_bytes"`
	StackBytes uint64 `json:"stack_bytes"`
	// MaxInstrs aborts runaway requests (a server-wide backstop under the
	// per-tenant cycle quota).
	MaxInstrs uint64 `json:"max_instrs"`
	// MaxBodyBytes caps request body size.
	MaxBodyBytes int64 `json:"max_body_bytes"`

	// CompileWorkers bounds concurrent compilations; CacheEntries and
	// CacheBytes bound the compiled-module LRU.
	CompileWorkers int    `json:"compile_workers"`
	CacheEntries   int    `json:"cache_entries"`
	CacheBytes     uint64 `json:"cache_bytes"`

	// MaxInflight caps concurrently executing requests machine-wide;
	// HighWatermark is the used-page fraction beyond which admission
	// throttles; RetryAfterSec is advertised on every 429.
	MaxInflight   int     `json:"max_inflight"`
	HighWatermark float64 `json:"high_watermark"`
	RetryAfterSec int     `json:"retry_after_sec"`

	// DefaultQuota applies to tenants not named in Tenants.
	DefaultQuota Quota            `json:"default_quota"`
	Tenants      map[string]Quota `json:"tenants"`

	// Ballast configures the background mmpolicy service.
	Ballast BallastConfig `json:"ballast"`

	// Obs, when non-nil, is the metrics registry (a private one is created
	// otherwise). The telemetry endpoints serve whichever is used.
	Obs *obs.Registry `json:"-"`
}

// DefaultServerConfig returns a configuration suitable for local serving
// and the loadgen harness.
func DefaultServerConfig() Config {
	return Config{
		Addr:           "localhost:0",
		MemBytes:       1 << 29, // 512 MB shared
		HeapBytes:      1 << 22, // 4 MB capsule heap per request
		StackBytes:     1 << 18, // 256 KB initial stack, carved from the heap
		MaxInstrs:      200_000_000,
		MaxBodyBytes:   1 << 20,
		CompileWorkers: 4,
		CacheEntries:   256,
		CacheBytes:     1 << 24,
		MaxInflight:    32,
		HighWatermark:  0.85,
		RetryAfterSec:  1,
		DefaultQuota:   Quota{MaxConcurrent: 16, MaxPages: 1 << 14, MaxCycles: 5_000_000_000},
	}
}

// Server is a caratd instance.
type Server struct {
	cfg  Config
	reg  *obs.Registry
	kern *kernel.Kernel

	compilers map[passes.Level]*core.Compiler
	trust     *signing.TrustStore
	cache     *moduleCache
	adm       *admission
	bal       *ballast
	tel       *telemetry.Server

	tenMu   sync.Mutex
	tenants map[string]*tenant

	inflight sync.WaitGroup // executing /v1 requests, for Drain

	mu       sync.Mutex
	ln       net.Listener
	http     *http.Server
	draining bool

	reqTotal *obs.Counter
	reqNS    *obs.Histogram
	drainMS  *obs.Gauge
}

// New builds a server: one shared kernel, one compiler per pipeline level
// (each with its own signing identity, all trusted), the module cache,
// admission control, and — unless disabled — the ballast mmpolicy service
// (not yet started; Start launches it).
func New(cfg Config) (*Server, error) {
	def := DefaultServerConfig()
	if cfg.MemBytes == 0 {
		cfg.MemBytes = def.MemBytes
	}
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = def.HeapBytes
	}
	if cfg.StackBytes == 0 {
		cfg.StackBytes = def.StackBytes
	}
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = def.MaxInstrs
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = def.MaxBodyBytes
	}
	if cfg.Addr == "" {
		cfg.Addr = def.Addr
	}
	if cfg.CompileWorkers <= 0 {
		cfg.CompileWorkers = def.CompileWorkers
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = def.CacheEntries
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = def.MaxInflight
	}
	if cfg.HighWatermark <= 0 || cfg.HighWatermark > 1 {
		cfg.HighWatermark = def.HighWatermark
	}
	if cfg.RetryAfterSec <= 0 {
		cfg.RetryAfterSec = def.RetryAfterSec
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:       cfg,
		reg:       reg,
		kern:      kernel.NewWith(cfg.MemBytes, reg),
		compilers: make(map[passes.Level]*core.Compiler),
		trust:     signing.NewTrustStore(),
		tenants:   make(map[string]*tenant),
		reqTotal:  reg.Counter("carat.server.requests_total"),
		reqNS:     reg.Histogram("carat.server.request_ns"),
		drainMS:   reg.Gauge("carat.server.drain_duration_ms"),
	}
	for _, lvl := range []passes.Level{
		passes.LevelNone, passes.LevelGuardsOnly, passes.LevelGuardsOpt,
		passes.LevelTracking, passes.LevelTrackingOnly,
	} {
		// One signing identity per level: the trust store keys by toolchain
		// name, so the names must be distinct.
		tc, err := signing.NewToolchain(fmt.Sprintf("caratd-cc-l%d", lvl), rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("server: toolchain for level %v: %w", lvl, err)
		}
		// Workers=1: the server's parallelism comes from concurrent
		// requests, not from fanning one compile across cores.
		s.compilers[lvl] = &core.Compiler{Level: lvl, Toolchain: tc, Workers: 1, Obs: reg}
		s.trust.Trust(tc.Name, tc.Public())
	}
	s.cache = newModuleCache(cfg.CacheEntries, cfg.CacheBytes, cfg.CompileWorkers, reg)
	s.adm = newAdmission(s.kern, cfg.MaxInflight, cfg.HighWatermark, cfg.RetryAfterSec, reg)
	s.tel = &telemetry.Server{Registry: reg}
	if !cfg.Ballast.Disabled {
		b, err := s.newBallast()
		if err != nil {
			return nil, fmt.Errorf("server: ballast: %w", err)
		}
		s.bal = b
	}
	return s, nil
}

// Obs returns the server's metrics registry.
func (s *Server) Obs() *obs.Registry { return s.reg }

// Handler returns the full caratd mux: /v1/run and /v1/modules plus the
// telemetry endpoints (/metrics, /profile, /trace, /healthz, /readyz) on
// the same listener. StartBackground must have run for ballast traffic.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", s.tel.Handler())
	mux.HandleFunc("/v1/run", s.instrument(s.handleRun))
	mux.HandleFunc("/v1/modules", s.instrument(s.handleModules))
	return mux
}

// StartBackground launches the ballast service and flips /readyz to 200.
// Called by Start; tests using Handler() directly call it themselves.
func (s *Server) StartBackground() {
	if s.bal != nil {
		go s.bal.run()
	}
	s.tel.SetReady(true)
}

// Listener timeouts: without them a client that trickles its headers holds a
// goroutine forever. No write timeout: a legitimate run may take longer than
// any fixed bound; its own limits (MaxInstrs, the cycle quota) bound it.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Start binds the configured address, launches background services, and
// serves in a goroutine. It returns the bound address.
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return "", fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	s.mu.Lock()
	s.ln, s.http = ln, srv
	s.mu.Unlock()
	s.StartBackground()
	go srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Drain/Close
	return ln.Addr().String(), nil
}

// Drain performs graceful shutdown: stop admitting (new /v1 requests get
// 503, /readyz flips to 503), let in-flight runs finish, halt the ballast
// service (final integrity verification included), and stop the listener.
// It returns the number of invariant violations observed over the
// server's lifetime — nonzero means the machine's integrity was breached
// and caratd should exit nonzero.
func (s *Server) Drain(ctx context.Context) (uint64, error) {
	start := time.Now()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return s.violations(), nil
	}
	s.draining = true
	srv := s.http
	s.mu.Unlock()

	s.tel.SetReady(false)
	s.adm.setDraining()
	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
	}
	if s.bal != nil {
		s.bal.halt()
	}
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	s.drainMS.Set(uint64(time.Since(start).Milliseconds()))
	return s.violations(), err
}

// Close force-stops without draining (tests).
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.http
	s.http, s.ln = nil, nil
	s.mu.Unlock()
	if s.bal != nil {
		s.bal.halt()
	}
	if srv != nil {
		return srv.Close()
	}
	return nil
}

func (s *Server) violations() uint64 {
	return s.reg.Counter("carat.server.invariant_violations").Get()
}

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a /v1 handler with the request counters, the latency
// histogram, and the in-flight waitgroup Drain blocks on.
func (s *Server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Done()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: 200}
		h(sw, r)
		s.reqTotal.Inc()
		s.reg.Counter("carat.server.requests." + strconv.Itoa(sw.code)).Inc()
		s.reqNS.Observe(uint64(time.Since(start).Nanoseconds()))
	}
}

// runRequest is the body of POST /v1/run (and, minus Ref/Seed semantics,
// POST /v1/modules). Exactly one of Source or Ref must be set for runs;
// modules require Source.
type runRequest struct {
	Tenant string `json:"tenant"`
	// Kind is the source language: "cc" (CARAT-C) or "cir" (textual IR).
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Source string `json:"source"`
	// Ref runs a previously compiled module by its cache reference.
	Ref string `json:"ref"`
	// Level is the pipeline level ("none", "guards", "guards-opt",
	// "carat", "tracking-only"); default "carat".
	Level string `json:"level"`
	// Seed is an opaque client token echoed into the response and its
	// digest context: identical (module, seed) requests must produce
	// byte-identical modeled results regardless of server concurrency.
	Seed int64 `json:"seed"`
}

// Run result schema identifiers (see DESIGN.md "Observability"). Bump
// ResultVersion on any incompatible field change.
const (
	ResultSchema  = "carat.server.result"
	ResultVersion = 1
)

// RunResult is the carat.server.result document: the body of a successful
// POST /v1/run.
type RunResult struct {
	Schema      string  `json:"schema"`
	Version     int     `json:"version"`
	Ref         string  `json:"ref"`
	Cached      bool    `json:"cached"`
	Seed        int64   `json:"seed"`
	Exit        int64   `json:"exit"`
	Instrs      uint64  `json:"instrs"`
	Cycles      uint64  `json:"cycles"`
	GuardChecks uint64  `json:"guard_checks"`
	Output      []int64 `json:"output"`
	Digest      string  `json:"digest"`
	WallMS      float64 `json:"wall_ms"`
}

type errorResponse struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // best-effort over HTTP
}

func (s *Server) writeError(w http.ResponseWriter, code int, reason string, err error) {
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(s.adm.RetryAfter()))
	}
	writeJSON(w, code, errorResponse{Error: err.Error(), Reason: reason})
}

func parseLevel(name string) (passes.Level, error) {
	switch name {
	case "", "carat":
		return passes.LevelTracking, nil
	case "none":
		return passes.LevelNone, nil
	case "guards":
		return passes.LevelGuardsOnly, nil
	case "guards-opt":
		return passes.LevelGuardsOpt, nil
	case "tracking-only":
		return passes.LevelTrackingOnly, nil
	}
	return 0, fmt.Errorf("unknown level %q", name)
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request) (*runRequest, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "method", errors.New("POST required"))
		return nil, false
	}
	var req runRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "body", fmt.Errorf("decode request: %w", err))
		return nil, false
	}
	if req.Name == "" {
		req.Name = "mod"
	}
	return &req, true
}

// compileEntry parses and compiles one source through the level's
// toolchain, verifying the signature against the trust store before the
// module becomes shareable. The returned module is immutable from here on.
func (s *Server) compileEntry(req *runRequest) (*moduleEntry, error) {
	lvl, err := parseLevel(req.Level)
	if err != nil {
		return nil, err
	}
	var mod *ir.Module
	switch req.Kind {
	case "", "cc":
		mod, err = cc.Compile(req.Name, req.Source)
	case "cir":
		mod, err = ir.Parse(req.Source)
	default:
		err = fmt.Errorf("unknown source kind %q", req.Kind)
	}
	if err != nil {
		return nil, err
	}
	res, err := s.compilers[lvl].Compile(mod)
	if err != nil {
		return nil, err
	}
	if err := s.trust.Verify(res.Binary); err != nil {
		return nil, fmt.Errorf("signature rejected: %w", err)
	}
	return &moduleEntry{
		mod:   res.Binary.Module,
		kind:  req.Kind,
		level: req.Level,
		name:  req.Name,
		bytes: uint64(len(req.Source)),
	}, nil
}

// resolve finds or builds the compiled module for a request.
func (s *Server) resolve(req *runRequest) (*moduleEntry, bool, int, string, error) {
	if req.Ref != "" {
		if e := s.cache.get(req.Ref); e != nil {
			return e, true, 0, "", nil
		}
		return nil, false, http.StatusNotFound, "unknown ref",
			fmt.Errorf("module %s not in cache (POST it to /v1/modules first)", req.Ref)
	}
	if req.Source == "" {
		return nil, false, http.StatusBadRequest, "body", errors.New("one of source or ref is required")
	}
	key := cacheKey(req.Kind, req.Level, req.Name, req.Source)
	e, cached, err := s.cache.getOrCompile(key, func() (*moduleEntry, error) { return s.compileEntry(req) })
	if err != nil {
		return nil, false, http.StatusBadRequest, "compile", err
	}
	return e, cached, 0, "", nil
}

// handleModules compiles (or finds) a module and returns its reference
// without running it — the precompile path.
func (s *Server) handleModules(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decode(w, r)
	if !ok {
		return
	}
	if s.adm.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining", errors.New("server is draining"))
		return
	}
	start := time.Now()
	if req.Source == "" {
		s.writeError(w, http.StatusBadRequest, "body", errors.New("source is required"))
		return
	}
	key := cacheKey(req.Kind, req.Level, req.Name, req.Source)
	e, cached, err := s.cache.getOrCompile(key, func() (*moduleEntry, error) { return s.compileEntry(req) })
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "compile", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ref":     e.ref,
		"cached":  cached,
		"name":    e.name,
		"level":   e.level,
		"wall_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
}

// handleRun executes a module as a fresh kernel.Process on the shared
// machine and returns its RunResult.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decode(w, r)
	if !ok {
		return
	}
	start := time.Now()

	release, code, reason, ok := s.adm.admit()
	if !ok {
		s.writeError(w, code, reason, fmt.Errorf("request rejected: %s", reason))
		return
	}
	defer release()

	ten := s.tenantFor(req.Tenant)
	if err := ten.acquireSlot(); err != nil {
		s.reg.Counter("carat.server.quota_rejections").Inc()
		s.writeError(w, http.StatusTooManyRequests, "tenant concurrency quota", err)
		return
	}
	defer ten.releaseSlot()

	entry, cached, code, reason, err := s.resolve(req)
	if err != nil {
		s.writeError(w, code, reason, err)
		return
	}

	prog, err := s.cache.program(entry, cached)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "load", err)
		return
	}
	// The run counts into a runtime of its own and publishes into s.reg when
	// it ends (Run, then Release): /metrics sees machine-wide totals, pause
	// histograms included, and no tenant's counts reach another's clock.
	vcfg := vm.DefaultConfig()
	vcfg.Kernel = s.kern
	vcfg.Limiter = ten
	vcfg.Capsule = true
	vcfg.HeapBytes = s.cfg.HeapBytes
	vcfg.StackBytes = s.cfg.StackBytes
	vcfg.MaxInstrs = s.cfg.MaxInstrs
	vcfg.MaxCycles = ten.quota.MaxCycles
	v, err := vm.LoadProgram(prog, vcfg)
	if err != nil {
		switch {
		case errors.Is(err, kernel.ErrQuota):
			s.reg.Counter("carat.server.quota_rejections").Inc()
			s.writeError(w, http.StatusTooManyRequests, "tenant page quota", err)
		case errors.Is(err, kernel.ErrNoMemory):
			s.reg.Counter("carat.server.admission_rejections").Inc()
			s.writeError(w, http.StatusTooManyRequests, "memory pressure", err)
		default:
			s.writeError(w, http.StatusInternalServerError, "load", err)
		}
		return
	}
	defer v.Release() //nolint:errcheck // teardown; double-free is checked in tests

	ret, err := v.Run()
	if err != nil {
		var stop *vm.StopError
		errors.As(err, &stop) // every Run error is one
		s.writeError(w, http.StatusUnprocessableEntity, string(stop.Reason), err)
		return
	}
	s.reg.Histogram("carat.server.exec_cycles").Observe(v.Cycles)

	resp := RunResult{
		Schema:      ResultSchema,
		Version:     ResultVersion,
		Ref:         entry.ref,
		Cached:      cached,
		Seed:        req.Seed,
		Exit:        ret,
		Instrs:      v.Instrs,
		Cycles:      v.Cycles,
		GuardChecks: v.GuardChecks,
		Output:      v.Output,
		WallMS:      float64(time.Since(start).Microseconds()) / 1000,
	}
	resp.Digest = digest(&resp)
	writeJSON(w, http.StatusOK, resp)
}

// digest fingerprints the modeled result: every field that must be
// byte-identical for identical (module, seed) requests regardless of
// concurrency. Wall time and cache state are deliberately excluded.
func digest(r *RunResult) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(r.Seed))
	put(uint64(r.Exit))
	put(r.Instrs)
	put(r.Cycles)
	put(r.GuardChecks)
	put(uint64(len(r.Output)))
	for _, v := range r.Output {
		put(uint64(v))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
