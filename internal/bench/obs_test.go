package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"carat/internal/obs"
	"carat/internal/runtime"
	"carat/internal/workload"
)

// TestTracingDoesNotChangeResults is the differential check behind the
// zero-interference requirement: the same experiment with and without a
// live tracer must produce byte-identical results (tracing observes the
// modeled cycles, it never charges any).
func TestTracingDoesNotChangeResults(t *testing.T) {
	plain := quickOpts("canneal", "LU")
	rPlain, err := Table3(plain)
	if err != nil {
		t.Fatal(err)
	}

	traced := quickOpts("canneal", "LU")
	var buf bytes.Buffer
	traced.Trace = obs.NewTracer(&buf, nil)
	traced.Obs = obs.NewRegistry()
	rTraced, err := Table3(traced)
	if err != nil {
		t.Fatal(err)
	}
	if err := traced.Trace.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(rPlain, rTraced) {
		t.Errorf("tracing changed the Table 3 result:\nplain:  %+v\ntraced: %+v", rPlain, rTraced)
	}
	if buf.Len() == 0 {
		t.Fatal("tracer produced no output")
	}
}

// TestSharedRegistryDoesNotChangeResults: a result is a function of its own
// run. With -json, -metrics or -http every run of a sweep is handed the same
// registry, and results that read registry-backed metrics (Figure 2's TLB
// misses, Figure 6's tracking bytes, the policy documents' pause histograms)
// used to report every earlier run's numbers on top of their own — at one
// worker too.
func TestSharedRegistryDoesNotChangeResults(t *testing.T) {
	experiments := []struct {
		id  string
		run func(Options) (Result, error)
	}{
		{"fig2", func(o Options) (Result, error) { return Fig2(o) }},
		{"fig6", func(o Options) (Result, error) { return Fig6(o) }},
		{"defrag", func(o Options) (Result, error) { return Defrag(o) }},
	}
	shared := obs.NewRegistry() // one registry across the whole sweep, like caratbench -json
	for _, e := range experiments {
		o := quickOpts("EP", "canneal", "swaptions")
		want, err := e.run(o)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			o.Obs, o.Workers = shared, workers
			got, err := e.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s with a shared registry at %d workers:\n got %+v\nwant %+v (no registry)", e.id, workers, got, want)
			}
		}
	}
	if shared.Counter("carat.vm.instrs").Get() == 0 || shared.Histogram(runtime.PauseHist).Count() == 0 {
		t.Error("the runs' metrics never reached the shared registry")
	}
}

// TestTraceContainsAllMoveSteps checks the Fig-8 protocol coverage the
// acceptance criteria demand: a traced Table 3 run must emit the parent
// "move" span and all 11 named step spans, and the whole file must parse
// as Chrome trace_event JSON.
func TestTraceContainsAllMoveSteps(t *testing.T) {
	o := quickOpts("canneal")
	var buf bytes.Buffer
	o.Trace = obs.NewTracer(&buf, nil)
	if _, err := Table3(o); err != nil {
		t.Fatal(err)
	}
	if err := o.Trace.Close(); err != nil {
		t.Fatal(err)
	}

	var doc obs.TraceDoc
	if err := obs.DecodeStrict(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace does not decode as an obs.TraceDoc: %v", err)
	}
	if doc.Schema != obs.TraceSchema || doc.Version != obs.TraceSchemaVersion {
		t.Errorf("trace schema = %s v%d, want %s v%d",
			doc.Schema, doc.Version, obs.TraceSchema, obs.TraceSchemaVersion)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		seen[ev.Name] = true
	}
	if !seen["move"] {
		t.Error("trace has no parent \"move\" span")
	}
	for _, step := range runtime.MoveStepNames {
		if !seen[step] {
			t.Errorf("trace missing move step span %q", step)
		}
	}
}

// TestRunJSONDocument checks the machine-readable bench document: schema
// header, per-experiment payloads, and the embedded metrics snapshot.
func TestRunJSONDocument(t *testing.T) {
	o := quickOpts("canneal")
	o.Obs = obs.NewRegistry()
	var buf bytes.Buffer
	if err := RunJSON("table3", o, &buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  string `json:"schema"`
		Version int    `json:"version"`
		Tool    string `json:"tool"`
		Scale   string `json:"scale"`
		Results []struct {
			Experiment string `json:"experiment"`
			Title      string `json:"title"`
			Data       struct {
				Rows []map[string]any `json:"rows"`
			} `json:"data"`
		} `json:"results"`
		Metrics *obs.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("document is not valid JSON: %v", err)
	}
	if doc.Schema != ResultSchema || doc.Version != ResultVersion {
		t.Errorf("schema = %s v%d, want %s v%d", doc.Schema, doc.Version, ResultSchema, ResultVersion)
	}
	if doc.Scale != "test" {
		t.Errorf("scale = %q, want \"test\"", doc.Scale)
	}
	if len(doc.Results) != 1 || doc.Results[0].Experiment != "table3" {
		t.Fatalf("results = %+v, want one table3 entry", doc.Results)
	}
	rows := doc.Results[0].Data.Rows
	if len(rows) == 0 {
		t.Fatal("table3 result has no rows")
	}
	for _, key := range []string{"page_expand", "patch_gen_exec", "register_patch",
		"alloc_and_move", "total_cost"} {
		if _, ok := rows[0][key]; !ok {
			t.Errorf("table3 row missing breakdown field %q", key)
		}
	}
	if doc.Metrics == nil {
		t.Fatal("document has no metrics snapshot")
	}
	if doc.Metrics.Counters["carat.runtime.moves"] == 0 {
		t.Error("metrics snapshot shows no runtime moves despite forced move policy")
	}
	if doc.Metrics.Counters["carat.passes.guards_injected"] == 0 {
		t.Error("metrics snapshot shows no injected guards")
	}
}

// TestUnknownExperimentListsIDs pins the satellite requirement: the error
// for a bad id must enumerate every valid id so the user need not consult
// the source.
func TestUnknownExperimentListsIDs(t *testing.T) {
	err := RunByID("nosuch", quickOpts("canneal"), &bytes.Buffer{})
	if err == nil {
		t.Fatal("unknown experiment id did not error")
	}
	for _, id := range ExperimentIDs() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not mention valid id %q", err, id)
		}
	}
	if !strings.Contains(err.Error(), "all") {
		t.Errorf("error %q does not mention the \"all\" pseudo-id", err)
	}
}

// TestExperimentIDsMatchRegistry keeps ExperimentIDs and Experiments in
// lockstep.
func TestExperimentIDsMatchRegistry(t *testing.T) {
	ids := ExperimentIDs()
	exps := Experiments()
	if len(ids) != len(exps) {
		t.Fatalf("%d ids vs %d experiments", len(ids), len(exps))
	}
	for i, e := range exps {
		if ids[i] != e.ID {
			t.Errorf("ids[%d] = %q, want %q", i, ids[i], e.ID)
		}
	}
}

// TestUnknownScaleListsScales pins the other satellite: ParseScale's error
// must list the valid spellings.
func TestUnknownScaleListsScales(t *testing.T) {
	_, err := workload.ParseScale("huge")
	if err == nil {
		t.Fatal("unknown scale did not error")
	}
	for _, name := range workload.ScaleNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention scale %q", err, name)
		}
	}
}
