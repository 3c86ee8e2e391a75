package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// buildSampleTrace emits a small, fully deterministic trace using a fake
// simulated-cycle clock.
func buildSampleTrace(w *strings.Builder) {
	var cyc uint64
	root := NewTracer(w, nil)
	tr := root.BeginProcess("workload \"EP\"", func() uint64 { return cyc })
	tr.SpanAt("move.world_stop", "protocol", 100, 50, A("threads", 2))
	tr.SpanAt("move.copy_data", "protocol", 150, 4096, A("bytes", uint64(4096)), A("dry", false))
	cyc = 5000
	tr.Instant("guard.fault", "guard", A("addr", "0xffff800000000000"))
	tr.InstantAt("page.demand_alloc", "paging", 6000)
	root.Close()
}

func TestTraceGolden(t *testing.T) {
	var b strings.Builder
	buildSampleTrace(&b)
	got := b.String()

	golden := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("trace output differs from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestTraceParsesAsChromeFormat(t *testing.T) {
	var b strings.Builder
	buildSampleTrace(&b)
	var doc TraceDoc
	if err := DecodeStrict(strings.NewReader(b.String()), &doc); err != nil {
		t.Fatalf("trace does not decode as a TraceDoc: %v\n%s", err, b.String())
	}
	if doc.Schema != TraceSchema || doc.Version != TraceSchemaVersion {
		t.Fatalf("schema = %q v%d", doc.Schema, doc.Version)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "M" {
		t.Fatalf("first event should be process metadata, got %+v", doc.TraceEvents[0])
	}
	span := doc.TraceEvents[2]
	if span.Name != "move.copy_data" || span.Ph != "X" || span.TS != 150 || span.Dur != 4096 {
		t.Fatalf("span = %+v", span)
	}
	if span.Args["bytes"].(float64) != 4096 || span.Args["dry"].(bool) != false {
		t.Fatalf("span args = %+v", span.Args)
	}
	inst := doc.TraceEvents[3]
	if inst.Name != "guard.fault" || inst.Ph != "i" || inst.TS != 5000 {
		t.Fatalf("instant = %+v", inst)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	// Every exported method must be callable on a nil tracer.
	if tr.Now() != 0 {
		t.Fatal("nil tracer Now should be 0")
	}
	if tr.BeginProcess("x", func() uint64 { return 1 }) != nil {
		t.Fatal("a nil tracer's lanes should be nil too")
	}
	tr.SpanAt("a", "b", 0, 1, A("k", 1))
	tr.Instant("a", "b")
	tr.InstantAt("a", "b", 5)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTracerMultiProcess(t *testing.T) {
	var b strings.Builder
	tr := NewTracer(&b, nil)
	// Both lanes are open before either emits, as two parallel VM runs
	// would have them: each event must carry its own lane's pid and clock.
	run1 := tr.BeginProcess("run1", func() uint64 { return 11 })
	run2 := tr.BeginProcess("run2", func() uint64 { return 22 })
	run1.Instant("i", "c")
	run2.Instant("i", "c")
	tr.Close()
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
			Ts  uint64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if e := doc.TraceEvents[2]; e.Pid != 1 || e.Ts != 11 {
		t.Fatalf("run1 event = %+v, want pid 1 at its own clock 11", e)
	}
	if e := doc.TraceEvents[3]; e.Pid != 2 || e.Ts != 22 {
		t.Fatalf("run2 event = %+v, want pid 2 at its own clock 22", e)
	}
}

// BenchmarkNilTracer measures the disabled-tracing fast path: a method
// call on a nil *Tracer must compile down to a receiver check and return.
func BenchmarkNilTracer(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		tr.SpanAt("move.copy_data", "protocol", uint64(i), 10)
	}
}

func BenchmarkTracerSpan(b *testing.B) {
	tr := NewTracer(discard{}, nil)
	defer tr.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SpanAt("move.copy_data", "protocol", uint64(i), 10, A("bytes", uint64(4096)))
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
