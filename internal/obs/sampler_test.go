package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestSamplerDefaultInterval(t *testing.T) {
	if s := NewSampler(0); s.Interval != DefaultSampleInterval {
		t.Errorf("NewSampler(0).Interval = %d, want %d", s.Interval, DefaultSampleInterval)
	}
	if s := NewSampler(128); s.Interval != 128 {
		t.Errorf("NewSampler(128).Interval = %d", s.Interval)
	}
}

func TestTrackSampleCatchUp(t *testing.T) {
	s := NewSampler(100)
	tr := s.NewTrack()
	stack := func() string { return "main;hot" }

	if 99 >= tr.Next() {
		t.Error("a sample due at 99, before the first interval")
	}
	tr.Sample(99, stack) // no-op below the first interval
	tr.Sample(250, stack)
	// 250 cycles at interval 100 = 2 whole intervals; remainder 50 carries.
	tr.Sample(299, stack) // still within the carried remainder: no-op
	tr.Sample(300, stack) // 1 more
	tr.Sample(1000, stack)

	doc := s.Snapshot()
	if doc.TotalSamples != 10 {
		t.Fatalf("total samples = %d, want 10 (1000 cycles / 100)", doc.TotalSamples)
	}
	if len(doc.Stacks) != 1 || doc.Stacks[0].Stack != "main;hot" || doc.Stacks[0].Phase != "exec" {
		t.Fatalf("stacks = %+v, want one exec bucket for main;hot", doc.Stacks)
	}
	if doc.PhaseTotals["exec"] != 10 {
		t.Errorf("exec phase total = %d, want 10", doc.PhaseTotals["exec"])
	}
}

func TestFoldPhaseRemainder(t *testing.T) {
	s := NewSampler(100)
	tr := s.NewTrack()

	tr.FoldPhase("move", 250) // 2 samples, remainder 50
	tr.FoldPhase("move", 250) // no new cycles: no-op
	tr.FoldPhase("move", 499) // 2 more (499-200 elapsed = 2 intervals)
	tr.FoldPhase("move", 500) // 1 more
	tr.FoldPhase("swap", 99)  // below one interval: nothing yet

	ps := s.PhaseSamples()
	if ps["move"] != 5 {
		t.Errorf("move samples = %d, want 5", ps["move"])
	}
	if ps["swap"] != 0 {
		t.Errorf("swap samples = %d, want 0 (sub-interval remainder)", ps["swap"])
	}
	// Reconciliation bound: samples * interval within one interval of the
	// cycle counter.
	if diff := int64(500) - int64(ps["move"]*100); diff < 0 || diff >= 100 {
		t.Errorf("move reconciliation off by %d cycles, want [0,100)", diff)
	}
}

// TestSamplerReconciliation drives a track like a VM run does — periodic
// exec samples plus cumulative phase counters — and checks the documented
// invariant: per-phase sample totals * interval reconcile with the cycle
// counters to within one interval per track.
func TestSamplerReconciliation(t *testing.T) {
	const interval = 512
	s := NewSampler(interval)
	tr := s.NewTrack()

	var cycles, guardCycles, moveCycles uint64
	x := uint64(2463534242)
	for step := 0; step < 3000; step++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		cycles += x%900 + 1
		guardCycles += x % 40
		if step%100 == 99 {
			moveCycles += 5000 + x%3000
		}
		if cycles >= tr.Next() {
			tr.Sample(cycles, func() string { return "main;work" })
			tr.FoldPhase("guard", guardCycles)
			tr.FoldPhase("move", moveCycles)
		}
	}
	// Final settle, as VM.Run does before publishing.
	tr.Sample(cycles, func() string { return "main" })
	tr.FoldPhase("guard", guardCycles)
	tr.FoldPhase("move", moveCycles)

	ps := s.PhaseSamples()
	checks := []struct {
		phase  string
		cycles uint64
	}{{"exec", cycles}, {"guard", guardCycles}, {"move", moveCycles}}
	for _, c := range checks {
		folded := ps[c.phase] * interval
		if folded > c.cycles || c.cycles-folded >= interval {
			t.Errorf("phase %s: %d samples * %d = %d cycles, counter %d: off by >= one interval",
				c.phase, ps[c.phase], interval, folded, c.cycles)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	s := NewSampler(10)
	tr := s.NewTrack()
	tr.Sample(55, func() string { return "main;a" })
	tr.FoldPhase("move", 30)
	tr.FoldPhase("guard", 30) // same count as move: sort must break the tie

	d1, d2 := s.Snapshot(), s.Snapshot()
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("consecutive snapshots differ:\n%+v\n%+v", d1, d2)
	}
	if d1.Stacks[0].Samples < d1.Stacks[len(d1.Stacks)-1].Samples {
		t.Error("stacks not sorted by descending samples")
	}
	var b1, b2 bytes.Buffer
	if err := d1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := d2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("JSON encodings of identical snapshots differ")
	}
}

func TestProfileDocInternallyConsistent(t *testing.T) {
	s := NewSampler(64)
	t1, t2 := s.NewTrack(), s.NewTrack()
	t1.Sample(640, func() string { return "main;f" })
	t1.FoldPhase("move", 320)
	t2.Sample(1280, func() string { return "main;g" })
	t2.FoldPhase("swap", 128)

	doc := s.Snapshot()
	if doc.Schema != ProfileSchema || doc.Version != ProfileSchemaVersion {
		t.Errorf("schema header %s v%d", doc.Schema, doc.Version)
	}
	if doc.Tracks != 2 {
		t.Errorf("tracks = %d, want 2", doc.Tracks)
	}
	var stackSum, phaseSum uint64
	for _, fs := range doc.Stacks {
		stackSum += fs.Samples
	}
	for _, n := range doc.PhaseTotals {
		phaseSum += n
	}
	if stackSum != doc.TotalSamples || phaseSum != doc.TotalSamples {
		t.Errorf("stacks sum %d, phases sum %d, total %d: must all agree",
			stackSum, phaseSum, doc.TotalSamples)
	}
	// Round-trip through JSON keeps the totals.
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back ProfileDoc
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.TotalSamples != doc.TotalSamples || len(back.Stacks) != len(doc.Stacks) {
		t.Error("JSON round-trip lost samples")
	}
}

func TestWriteFolded(t *testing.T) {
	s := NewSampler(100)
	tr := s.NewTrack()
	tr.Sample(300, func() string { return "main;hot" })
	tr.FoldPhase("move", 200)

	var buf bytes.Buffer
	if err := s.Snapshot().WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("folded output = %q, want 2 lines", buf.String())
	}
	// Sorted by samples: exec (3) before move (2). The phase is the root
	// frame; exec lines carry the guest stack after it.
	if lines[0] != "exec;main;hot 3" {
		t.Errorf("line 0 = %q, want %q", lines[0], "exec;main;hot 3")
	}
	if lines[1] != "move 2" {
		t.Errorf("line 1 = %q, want %q", lines[1], "move 2")
	}
}
