package obs

import (
	"sync"
	"testing"
)

// TestSnapshotUnderConcurrentWrites hammers Snapshot while 8 goroutines
// observe histograms and bump counters. Run under -race (make check does),
// this is the proof behind the telemetry server's claim that a live scrape
// never stops or corrupts the instrumented program. Asserted invariants:
// counts are monotonic across snapshots, and no snapshot is torn (bucket
// populations never lag the count they were read before).
func TestSnapshotUnderConcurrentWrites(t *testing.T) {
	const (
		writers = 8
		perG    = 5000
	)
	r := NewRegistry()
	// Pre-register so writers share the same cells the reader snapshots.
	ctr := r.Counter("carat.test.ops")
	h := r.Histogram("carat.test.latency")
	g := r.Gauge("carat.test.level")

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				ctr.Inc()
				h.Observe(uint64(w*perG+i)%1000 + 1)
				g.Set(uint64(i))
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	close(start)

	var lastCount, lastHist uint64
	snapshots := 0
	running := true
	for running {
		select {
		case <-done:
			running = false // take one final racing snapshot, then stop
		default:
		}
		s := r.Snapshot()
		snapshots++
		if c := s.Counters["carat.test.ops"]; c < lastCount {
			t.Fatalf("counter went backwards: %d after %d", c, lastCount)
		} else {
			lastCount = c
		}
		hs := s.Histograms["carat.test.latency"]
		if hs.Count < lastHist {
			t.Fatalf("histogram count went backwards: %d after %d", hs.Count, lastHist)
		}
		lastHist = hs.Count
		// Observe bumps the bucket before the count, and the snapshot reads
		// the count first — so a torn snapshot can only show bucketSum >=
		// count, never a count the buckets cannot account for.
		var bucketSum uint64
		for _, b := range hs.Buckets {
			bucketSum += b.Count
		}
		if bucketSum < hs.Count {
			t.Fatalf("torn snapshot: %d bucketed observations < count %d", bucketSum, hs.Count)
		}
		if hs.Count > 0 && hs.Min > hs.Max {
			t.Fatalf("torn snapshot: min %d > max %d", hs.Min, hs.Max)
		}
	}
	if snapshots < 2 {
		t.Logf("only %d snapshots raced against the writers", snapshots)
	}

	s := r.Snapshot()
	const want = writers * perG
	if got := s.Counters["carat.test.ops"]; got != want {
		t.Errorf("final counter = %d, want %d", got, want)
	}
	hs := s.Histograms["carat.test.latency"]
	if hs.Count != want {
		t.Errorf("final histogram count = %d, want %d", hs.Count, want)
	}
	var bucketSum uint64
	for _, b := range hs.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != hs.Count {
		t.Errorf("final bucket sum %d != count %d", bucketSum, hs.Count)
	}
	if hs.Min != 1 || hs.Max != 1000 {
		t.Errorf("final min/max = %d/%d, want 1/1000", hs.Min, hs.Max)
	}
}

// TestSamplerConcurrentScrape races Snapshot against a track owner doing
// Sample/FoldPhase, the exact shape of an HTTP /profile scrape hitting a
// running VM. Under -race this validates the sampler's locking story.
func TestSamplerConcurrentScrape(t *testing.T) {
	s := NewSampler(16)
	tr := s.NewTrack()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var cycles, moves uint64
		for i := 0; i < 20000; i++ {
			cycles += 7
			moves += 3
			if cycles >= tr.Next() {
				tr.Sample(cycles, func() string { return "main;loop" })
				tr.FoldPhase("move", moves)
			}
		}
	}()
	var last uint64
	for {
		doc := s.Snapshot()
		if doc.TotalSamples < last {
			t.Fatalf("profile total went backwards: %d after %d", doc.TotalSamples, last)
		}
		last = doc.TotalSamples
		select {
		case <-done:
			return
		default:
		}
	}
}
