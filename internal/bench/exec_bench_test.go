package bench

import (
	"testing"

	"carat/internal/passes"
)

// The VM's two engines, measured over the same guard-heavy kernel. Run via `make bench`:
//
//	go test -run '^$' -bench BenchmarkExec ./internal/bench/
//
// b.N counts whole program executions; the per-op metric is therefore one
// full kernel run. ReportMetric adds modeled-instructions-per-host-second,
// the figure of merit BENCH_exec.json records.

func benchEngine(b *testing.B, eng execEngine) {
	b.Helper()
	const iters = 20
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := ExecBenchModule(iters, passes.LevelGuardsOnly)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		v, _, err := runExecOnce(m, eng, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs = v.Instrs
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstrs/s")
}

func BenchmarkExecReference(b *testing.B) { benchEngine(b, execReference) }
func BenchmarkExecCompiled(b *testing.B)  { benchEngine(b, execCompiled) }

// TestExecBenchGate runs the same measurement the CI gate uses, at reduced
// size, and checks the document invariants (schema header, engine-invariant
// modeled results are asserted inside RunExecBench itself).
func TestExecBenchGate(t *testing.T) {
	doc, err := RunExecBench(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != ExecBenchSchema || doc.Version != ExecBenchVersion {
		t.Errorf("schema header %s v%d, want %s v%d", doc.Schema, doc.Version, ExecBenchSchema, ExecBenchVersion)
	}
	if len(doc.Engines) != 3 {
		t.Fatalf("engines = %d, want 3", len(doc.Engines))
	}
	for _, e := range doc.Engines {
		if e.Instrs == 0 || e.WallMS <= 0 {
			t.Errorf("engine %s: empty measurement %+v", e.Engine, e)
		}
	}
	if ref := doc.Engines[0]; ref.XCacheHits+ref.XCacheMisses+ref.ICHits+ref.ICMisses != 0 {
		t.Errorf("the reference leg shares the compiled engine's cache or call sites: %+v", ref)
	}
	if doc.Engines[1].XCacheHits == 0 {
		t.Error("compiled leg recorded no xcache hits")
	}
	tele := doc.Engines[2]
	if !tele.Telemetry {
		t.Errorf("engine %s should be the telemetry leg", tele.Engine)
	}
	if tele.XCacheHits == 0 {
		t.Error("telemetry leg recorded no xcache hits")
	}
	if doc.SpeedupClosure <= 0 {
		t.Error("speedup not computed")
	}
	// The overhead figure must be computed (any finite value; the CI bench
	// job, not this smoke test, gates its magnitude).
	if doc.TelemetryOverheadPct >= 100 {
		t.Errorf("telemetry overhead %.1f%% nonsensical", doc.TelemetryOverheadPct)
	}
}
