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
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric with atomic updates. The
// zero value is usable: run-lifetime owners keep plain ones and publish them.
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
func (h *Histogram) Snapshot() HistogramSnapshot {
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

// addTo folds every observation of h into dst, as if each had been observed
// there. Bucket shapes are identical across all Histograms (fixed log2
// scale), so the fold is exact. The caller keeps h's observers out.
func (h *Histogram) addTo(dst *Histogram) {
	n := h.count.Load()
	if n == 0 {
		return
	}
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c != 0 {
			dst.buckets[i].Add(c)
		}
	}
	dst.count.Add(n)
	dst.sum.Add(h.sum.Load())
	min, max := h.min.Load(), h.max.Load()
	for {
		cur := dst.max.Load()
		if max <= cur || dst.max.CompareAndSwap(cur, max) {
			break
		}
	}
	if !dst.minInit.Load() && dst.minInit.CompareAndSwap(false, true) {
		dst.min.Store(min)
		return
	}
	for {
		cur := dst.min.Load()
		if min >= cur || dst.min.CompareAndSwap(cur, min) {
			break
		}
	}
}

func (h *Histogram) reset() {
	for i := range h.buckets {
		if h.buckets[i].Load() != 0 { // most are: an atomic store is not free
			h.buckets[i].Store(0)
		}
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
	return lookup(r.counters, name)
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return lookup(r.gauges, name)
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return lookup(r.hists, name)
}

// lookup returns m's metric called name, creating it if needed. The caller
// holds the registry's lock.
func lookup[T any](m map[string]*T, name string) *T {
	x, ok := m[name]
	if !ok {
		x = new(T)
		m[name] = x
	}
	return x
}

// Publish runs fn under one acquisition of the registry's lock, handing it
// the Sink that writes there: how a run-lifetime owner (a VM, its runtime)
// lands what it counted in plain fields of its own. fn must not call r.
func (r *Registry) Publish(fn func(Sink)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(Sink{r})
}

// Sink is the write side of one Registry.Publish step, valid only inside it.
// Every method creates its series, even with nothing to add.
type Sink struct{ r *Registry }

// Add adds n to the named counter.
func (s Sink) Add(name string, n uint64) { lookup(s.r.counters, name).Add(n) }

// Set stores v in the named gauge.
func (s Sink) Set(name string, v uint64) { lookup(s.r.gauges, name).Set(v) }

// Drain moves every observation of h (nil: none) into the named histogram
// and empties h, so the next Drain publishes only what was observed since.
// The caller keeps h's observers out meanwhile.
func (s Sink) Drain(name string, h *Histogram) {
	dst := lookup(s.r.hists, name)
	if h != nil {
		h.addTo(dst)
		h.reset()
	}
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
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// Merge folds every counter and histogram of from into r, as if each had
// been recorded here: counters add, histograms merge bucket-wise. The bench
// harness gives each experiment run a registry of its own and merges it into
// the sweep's when the run is over. Gauges stay behind: a finished run's
// point-in-time value says nothing about r's present, and r's own writers
// keep adjusting theirs.
func (r *Registry) Merge(from *Registry) {
	from.mu.Lock()
	defer from.mu.Unlock()
	r.Publish(func(s Sink) {
		for name, c := range from.counters {
			s.Add(name, c.Get())
		}
		for name, h := range from.hists {
			h.addTo(lookup(r.hists, name))
		}
	})
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

// DecodeStrict decodes one JSON document into v, rejecting any field v's
// type does not declare: the Go type is a carat.* document's one schema
// declaration, so a renamed or misspelled field fails here instead of
// silently reading zero.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// WriteJSON writes the registry's snapshot as an indented, versioned JSON
// document.
func (r *Registry) WriteJSON(w io.Writer) error {
	doc := MetricsDocument{Schema: MetricsSchema, Version: MetricsSchemaVersion, Snapshot: r.Snapshot()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
