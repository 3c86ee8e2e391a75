package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("carat.test.counter")
	c.Inc()
	c.Add(41)
	if got := c.Get(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if r.Counter("carat.test.counter") != c {
		t.Fatalf("Counter lookup not stable")
	}
	g := r.Gauge("carat.test.gauge")
	g.Set(7)
	g.Add(3)
	if got := g.Get(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("carat.test.shared")
			h := r.Histogram("carat.test.hist")
			for j := 0; j < perG; j++ {
				c.Inc()
				h.Observe(uint64(j))
				r.Gauge("carat.test.gauge").Set(uint64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("carat.test.shared").Get(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("carat.test.hist").Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v   uint64
		idx int
		le  uint64 // upper bound of that bucket
	}{
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 2, 3},
		{4, 3, 7},
		{7, 3, 7},
		{8, 4, 15},
		{1023, 10, 1023},
		{1024, 11, 2047},
		{1<<63 - 1, 63, 1<<63 - 1},
		{1 << 63, 64, ^uint64(0)},
		{^uint64(0), 64, ^uint64(0)},
	}
	for _, tc := range cases {
		if got := BucketIndex(tc.v); got != tc.idx {
			t.Errorf("BucketIndex(%d) = %d, want %d", tc.v, got, tc.idx)
		}
		if got := BucketUpperBound(tc.idx); got != tc.le {
			t.Errorf("BucketUpperBound(%d) = %d, want %d", tc.idx, got, tc.le)
		}
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("carat.test.h")
	for _, v := range []uint64{5, 3, 12, 3, 100} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["carat.test.h"]
	if s.Count != 5 || s.Sum != 123 || s.Min != 3 || s.Max != 100 {
		t.Fatalf("snapshot = %+v, want count=5 sum=123 min=3 max=100", s)
	}
	// 3,3 -> le 3; 5 -> le 7; 12 -> le 15; 100 -> le 127
	want := []BucketCount{{3, 2}, {7, 1}, {15, 1}, {127, 1}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, s.Buckets[i], want[i])
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("carat.vm.instrs")
	c.Add(99)
	r.Gauge("carat.runtime.escapes_live").Set(4)
	r.Histogram("carat.vm.alloc_bytes").Observe(64)

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc MetricsDocument
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("metrics JSON does not parse: %v\n%s", err, b.String())
	}
	if doc.Schema != MetricsSchema || doc.Version != MetricsSchemaVersion {
		t.Fatalf("schema = %q v%d", doc.Schema, doc.Version)
	}
	if doc.Counters["carat.vm.instrs"] != 99 {
		t.Fatalf("counters = %v", doc.Counters)
	}
	if doc.Gauges["carat.runtime.escapes_live"] != 4 {
		t.Fatalf("gauges = %v", doc.Gauges)
	}
	if doc.Histograms["carat.vm.alloc_bytes"].Count != 1 {
		t.Fatalf("histograms = %v", doc.Histograms)
	}

	// JSON encoding must be byte-stable run to run (sorted map keys).
	var b2 strings.Builder
	if err := r.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Fatalf("metrics JSON not stable:\n%s\nvs\n%s", b.String(), b2.String())
	}
}

// TestRegistryMerge: folding two private registries into a shared one gives
// what recording everything in the shared one would have — for counters and
// histograms; gauges stay where they were written.
func TestRegistryMerge(t *testing.T) {
	shared, direct := NewRegistry(), NewRegistry()
	shared.Counter("c").Add(1)
	direct.Counter("c").Add(1)
	shared.Gauge("g").Set(7)
	for run := uint64(1); run <= 2; run++ {
		private := NewRegistry()
		for _, r := range []*Registry{private, direct} {
			r.Counter("c").Add(10 * run)
			r.Counter("only").Inc()
			r.Histogram("h").Observe(100 * run)
		}
		private.Gauge("g").Set(run)
		shared.Merge(private)
	}
	got, want := shared.Snapshot(), direct.Snapshot()
	if !reflect.DeepEqual(got.Counters, want.Counters) || !reflect.DeepEqual(got.Histograms, want.Histograms) {
		t.Errorf("merged:\n got %+v\nwant %+v", got, want)
	}
	if g := shared.Gauge("g").Get(); g != 7 {
		t.Errorf("gauge g = %d after merging; a finished run's reading must not overwrite the shared 7", g)
	}
}

// TestPublishDrain: a run-owned histogram drained twice lands exactly what
// observing into the registry would have, each observation once; draining
// nil still makes the series visible, and Sink's counters and gauges write
// through.
func TestPublishDrain(t *testing.T) {
	reg, direct := NewRegistry(), NewRegistry()
	var own Histogram
	for _, v := range []uint64{0, 7, 300} {
		own.Observe(v)
		direct.Histogram("h").Observe(v)
	}
	reg.Publish(func(s Sink) {
		s.Drain("h", &own)
		s.Drain("empty", nil)
		s.Add("c", 3)
		s.Set("g", 9)
	})
	if own.Count() != 0 {
		t.Fatalf("drained histogram still holds %d observations", own.Count())
	}
	own.Observe(5)
	direct.Histogram("h").Observe(5)
	reg.Publish(func(s Sink) { s.Drain("h", &own); s.Add("c", 0) })

	snap := reg.Snapshot()
	if got, want := snap.Histograms["h"], direct.Snapshot().Histograms["h"]; !reflect.DeepEqual(got, want) {
		t.Errorf("drained twice:\n got %+v\nwant %+v", got, want)
	}
	if e, ok := snap.Histograms["empty"]; !ok || e.Count != 0 {
		t.Errorf("draining nil: series %+v present=%v, want an empty series", e, ok)
	}
	if snap.Counters["c"] != 3 || snap.Gauges["g"] != 9 {
		t.Errorf("counters %v gauges %v", snap.Counters, snap.Gauges)
	}
}
