// Package obs is the unified observability layer of the simulated CARAT
// system: a metrics registry (counters, gauges, log-scale histograms), a
// Chrome trace_event tracer driven by the simulated cycle clock, and a
// cycle-attribution profile that decomposes the VM's single cycle total
// into categories and per-function buckets.
//
// The paper's whole argument is cost accounting — per-step move-protocol
// cycles (Table 3), guard overhead decomposition (Fig 3), paging-event
// rates (Table 2) — so every layer (vm, runtime, kernel, tlb, passes,
// bench) publishes into one obs.Registry under a dotted namespace
// (carat.vm.*, carat.runtime.*, carat.kernel.*, carat.tlb.*,
// carat.passes.*; ownership documented in DESIGN.md) and, when a tracer is
// attached, emits spans and instants on the modeled timeline. Everything
// is pure stdlib.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric with atomic updates. The
// zero value is usable, but counters are normally obtained from a Registry
// so they appear in snapshots.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Get returns the current value.
func (c *Counter) Get() uint64 { return c.v.Load() }

// Gauge is a point-in-time value with atomic updates.
type Gauge struct{ v atomic.Uint64 }

// Set stores n.
func (g *Gauge) Set(n uint64) { g.v.Store(n) }

// Add adds delta (which may wrap; gauges are unsigned).
func (g *Gauge) Add(n uint64) { g.v.Add(n) }

// Get returns the current value.
func (g *Gauge) Get() uint64 { return g.v.Load() }

// HistogramBuckets is the fixed bucket count of a log-scale histogram:
// bucket i counts observations whose bit length is i, i.e. bucket 0 holds
// the value 0 and bucket i (i >= 1) holds values in [2^(i-1), 2^i - 1].
const HistogramBuckets = 65

// Histogram is a log2-bucketed histogram with atomic updates, suitable for
// cycle counts and byte sizes spanning many orders of magnitude.
type Histogram struct {
	buckets  [HistogramBuckets]atomic.Uint64
	count    atomic.Uint64
	sum      atomic.Uint64
	min, max atomic.Uint64
	minInit  atomic.Bool
}

// BucketIndex returns the bucket an observation of v lands in.
func BucketIndex(v uint64) int { return bits.Len64(v) }

// BucketUpperBound returns the largest value bucket i holds.
func BucketUpperBound(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	h.buckets[BucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	if !h.minInit.Load() && h.minInit.CompareAndSwap(false, true) {
		h.min.Store(v)
		return
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the arithmetic mean of observations (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile returns the value at quantile q (0 < q <= 1) estimated from
// the live bucket counts with intra-bucket log interpolation. 0 when the
// histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	return h.snapshot().Quantile(q)
}

// BucketCount is one non-empty histogram bucket in a snapshot: Count
// observations were <= Le (and greater than the previous bucket's Le).
type BucketCount struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a histogram's state at snapshot time. P50/P95/P99
// are the standard latency quantiles, estimated from the log-scale
// buckets with intra-bucket log interpolation (see Quantile).
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Min     uint64        `json:"min"`
	Max     uint64        `json:"max"`
	P50     float64       `json:"p50"`
	P95     float64       `json:"p95"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Quantile returns the value at quantile q (0 < q <= 1) estimated from the
// snapshot's bucket counts. Because buckets are log2-scaled, the position
// within a bucket is interpolated geometrically (log interpolation):
// value = lo * (hi/lo)^frac, where frac is the fraction of the bucket's
// observations below the target rank. The estimate is clamped to the
// observed [Min, Max] envelope. Returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q <= 0 {
		return float64(s.Min)
	}
	if q >= 1 {
		return float64(s.Max)
	}
	if len(s.Buckets) == 1 {
		// Every observation shares one bucket: interpolating across it
		// would manufacture spread the data does not have (and divides
		// across a zero-width range when the bucket holds one value).
		// Return the bucket's upper bound clamped to the envelope.
		v := float64(s.Buckets[0].Le)
		v = math.Max(v, float64(s.Min))
		v = math.Min(v, float64(s.Max))
		return v
	}
	// Target rank in [1, Count]: the ceil makes p100 land on the last
	// observation and keeps single-observation histograms exact.
	rank := math.Ceil(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for _, b := range s.Buckets {
		prev := cum
		cum += float64(b.Count)
		if cum < rank {
			continue
		}
		// Bucket holding Le covers [lo, Le] where lo is its lower bound:
		// 0 for the zero bucket, else 2^(len-1) (the previous power of two).
		if b.Le == 0 {
			return 0
		}
		lo := float64(uint64(1) << (bits.Len64(b.Le) - 1))
		hi := float64(b.Le)
		frac := (rank - prev) / float64(b.Count)
		v := lo * math.Pow(hi/lo, frac)
		// Clamp to the observed envelope: the true extremes are known
		// exactly, and no estimate can lie outside them.
		v = math.Max(v, float64(s.Min))
		v = math.Min(v, float64(s.Max))
		return v
	}
	return float64(s.Max)
}

// Snapshot returns a point-in-time copy of the histogram's state,
// including the estimated p50/p95/p99.
func (h *Histogram) Snapshot() HistogramSnapshot { return h.snapshot() }

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Min: h.min.Load(), Max: h.max.Load()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Le: BucketUpperBound(i), Count: n})
		}
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Merge folds a snapshot taken from another histogram into h, as if every
// observation behind the snapshot had been observed here. Bucket shapes are
// identical across all Histograms (fixed log2 scale), so the fold is exact
// (see Registry.Merge).
func (h *Histogram) Merge(s HistogramSnapshot) {
	if s.Count == 0 {
		return
	}
	for _, b := range s.Buckets {
		i := bits.Len64(b.Le)
		if i >= HistogramBuckets {
			i = HistogramBuckets - 1
		}
		h.buckets[i].Add(b.Count)
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	for {
		cur := h.max.Load()
		if s.Max <= cur || h.max.CompareAndSwap(cur, s.Max) {
			break
		}
	}
	if !h.minInit.Load() && h.minInit.CompareAndSwap(false, true) {
		h.min.Store(s.Min)
		return
	}
	for {
		cur := h.min.Load()
		if s.Min >= cur || h.min.CompareAndSwap(cur, s.Min) {
			break
		}
	}
}

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(0)
	h.max.Store(0)
	h.minInit.Store(false)
}

// Registry is a named collection of metrics. Lookup creates on first use;
// the returned Counter/Gauge/Histogram pointers are stable, so hot paths
// resolve a metric once and update it with a single atomic add.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry. Maps
// marshal with sorted keys, so the JSON encoding is stable.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]uint64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Get()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]uint64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Get()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// Merge folds every counter and histogram of from into r, as if each had
// been recorded here: counters add, histograms merge bucket-wise. It is how a
// run that needs exact readings of its own — the vm folds runtime cycle
// counters into its modeled clock as deltas, experiment results read TLB,
// tracking and pause metrics — publishes to a private registry and still
// lands in the shared one: caratd merges every request's, the bench harness
// every run's. Gauges stay behind: a finished run's point-in-time value says
// nothing about r's present, and r's own writers keep adjusting theirs.
func (r *Registry) Merge(from *Registry) {
	snap := from.Snapshot()
	for name, val := range snap.Counters {
		r.Counter(name).Add(val)
	}
	for name, hs := range snap.Histograms {
		r.Histogram(name).Merge(hs)
	}
}

// Reset zeroes every metric, keeping the registered names and pointers
// valid (holders of a *Counter keep writing to the same cell).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Metrics document schema identifiers (see DESIGN.md "Observability").
const (
	MetricsSchema        = "carat.metrics"
	MetricsSchemaVersion = 1
)

// MetricsDocument is the versioned machine-readable encoding of a registry
// snapshot, written by the -metrics flag of caratvm and caratbench.
type MetricsDocument struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Snapshot
}

// WriteJSON writes the registry's snapshot as an indented, versioned JSON
// document.
func (r *Registry) WriteJSON(w io.Writer) error {
	doc := MetricsDocument{Schema: MetricsSchema, Version: MetricsSchemaVersion, Snapshot: r.Snapshot()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
