package obs

import (
	"math"
	"testing"
)

// Quantile estimates come from log2 buckets with geometric intra-bucket
// interpolation, so tolerances below are relative: an estimate may be off
// by a fraction of one bucket's width but never outside [Min, Max].

func TestQuantileEmpty(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile(0.5) = %v, want 0", got)
	}
	s := h.Snapshot()
	if s.P50 != 0 || s.P95 != 0 || s.P99 != 0 {
		t.Errorf("empty snapshot percentiles = %v/%v/%v, want zeros", s.P50, s.P95, s.P99)
	}
}

func TestQuantileSingleValue(t *testing.T) {
	var h Histogram
	h.Observe(100)
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		if got := h.Snapshot().Quantile(q); got != 100 {
			t.Errorf("Quantile(%v) = %v, want 100 (clamped to the only observation)", q, got)
		}
	}
}

func TestQuantileConstant(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(777)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := h.Snapshot().Quantile(q); got != 777 {
			t.Errorf("Quantile(%v) = %v, want 777", q, got)
		}
	}
}

func TestQuantileSingleBucketReturnsBound(t *testing.T) {
	// All observations land in one log2 bucket ([8,15]): interpolating
	// inside it would manufacture spread, so mid-range quantiles return the
	// bucket bound clamped to the observed envelope.
	var h Histogram
	for _, v := range []uint64{9, 11, 14} {
		h.Observe(v)
	}
	for _, q := range []float64{0.25, 0.5, 0.75, 0.99} {
		if got := h.Snapshot().Quantile(q); got != 14 {
			t.Errorf("single-bucket Quantile(%v) = %v, want bucket bound clamped to Max 14", q, got)
		}
	}
	if got := h.Snapshot().Quantile(0); got != 9 {
		t.Errorf("single-bucket Quantile(0) = %v, want Min 9", got)
	}
}

func TestQuantileEmptySnapshotBuckets(t *testing.T) {
	// A snapshot with a count but no buckets (can arise from a hand-built
	// document) must return 0 rather than divide across nothing.
	s := HistogramSnapshot{Count: 5}
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("bucketless snapshot Quantile(0.5) = %v, want 0", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	for v := uint64(1); v <= 100; v++ {
		a.Observe(v)
		whole.Observe(v)
	}
	for v := uint64(500); v <= 600; v++ {
		b.Observe(v)
		whole.Observe(v)
	}
	var merged Histogram
	a.addTo(&merged)
	b.addTo(&merged)
	ms, ws := merged.Snapshot(), whole.Snapshot()
	if ms.Count != ws.Count || ms.Sum != ws.Sum || ms.Min != ws.Min || ms.Max != ws.Max {
		t.Errorf("merged summary %+v != direct %+v", ms, ws)
	}
	if len(ms.Buckets) != len(ws.Buckets) {
		t.Fatalf("merged has %d buckets, direct has %d", len(ms.Buckets), len(ws.Buckets))
	}
	for i := range ms.Buckets {
		if ms.Buckets[i] != ws.Buckets[i] {
			t.Errorf("bucket %d: merged %+v != direct %+v", i, ms.Buckets[i], ws.Buckets[i])
		}
	}
	if ms.P50 != ws.P50 || ms.P95 != ws.P95 || ms.P99 != ws.P99 {
		t.Errorf("merged percentiles %v/%v/%v != direct %v/%v/%v",
			ms.P50, ms.P95, ms.P99, ws.P50, ws.P95, ws.P99)
	}
	var empty, none Histogram
	none.addTo(&empty)
	if empty.Count() != 0 || empty.Snapshot().Min != 0 {
		t.Errorf("merging an empty histogram observed something: %+v", empty.Snapshot())
	}
}

func TestQuantileUniform(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 500},
		{0.95, 950},
		{0.99, 990},
	}
	for _, c := range cases {
		got := h.Snapshot().Quantile(c.q)
		if rel := math.Abs(got-c.want) / c.want; rel > 0.10 {
			t.Errorf("uniform 1..1000: Quantile(%v) = %.1f, want %.0f +/- 10%%", c.q, got, c.want)
		}
	}
}

func TestQuantileBimodal(t *testing.T) {
	// 95% of observations at 10, 5% at 10000: the median must land in the
	// low mode's bucket and p99 in the high mode's.
	var h Histogram
	for i := 0; i < 95; i++ {
		h.Observe(10)
	}
	for i := 0; i < 5; i++ {
		h.Observe(10000)
	}
	if p50 := h.Snapshot().Quantile(0.50); p50 < 8 || p50 > 15 {
		t.Errorf("bimodal p50 = %.1f, want within the [8,15] bucket of the low mode", p50)
	}
	if p99 := h.Snapshot().Quantile(0.99); p99 < 8192 || p99 > 10000 {
		t.Errorf("bimodal p99 = %.1f, want in the high mode's bucket (clamped at max 10000)", p99)
	}
}

func TestQuantileMonotoneAndBounded(t *testing.T) {
	var h Histogram
	// Deterministic pseudo-random values spanning several buckets.
	x := uint64(88172645463325252)
	for i := 0; i < 5000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.Observe(x % 100000)
	}
	s := h.Snapshot()
	prev := float64(s.Min)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999} {
		got := s.Quantile(q)
		if got < prev {
			t.Errorf("Quantile(%v) = %.1f < previous quantile %.1f: not monotone", q, got, prev)
		}
		if got < float64(s.Min) || got > float64(s.Max) {
			t.Errorf("Quantile(%v) = %.1f outside observed [%d, %d]", q, got, s.Min, s.Max)
		}
		prev = got
	}
}

func TestQuantileBoundsClamp(t *testing.T) {
	var h Histogram
	h.Observe(3)
	h.Observe(300)
	if got := h.Snapshot().Quantile(0); got != 3 {
		t.Errorf("Quantile(0) = %v, want Min 3", got)
	}
	if got := h.Snapshot().Quantile(1); got != 300 {
		t.Errorf("Quantile(1) = %v, want Max 300", got)
	}
}

func TestSnapshotPercentilesMatchQuantile(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 300; v++ {
		h.Observe(v * 7)
	}
	s := h.Snapshot()
	if s.P50 != s.Quantile(0.50) || s.P95 != s.Quantile(0.95) || s.P99 != s.Quantile(0.99) {
		t.Errorf("snapshot percentiles %v/%v/%v disagree with Quantile calls %v/%v/%v",
			s.P50, s.P95, s.P99, s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99))
	}
}
