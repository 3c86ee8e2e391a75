package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON mirrors the fields of BENCHMARK.json the tests check.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestQuantilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) → [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 22, 2, 37, 4, 29, 7, 16, 11}
	for q, want := range map[float64]float64{0.25: 3.5, 0.5: 13.5, 0.75: 31} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got, want := spread(xs), (31-3.5)/13.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v", got)
	}
}

func TestMedianOfClasses(t *testing.T) {
	// Two cheap classes and one dear one: the plain median would sit inside
	// whichever class has most samples; this one is the middle class's median.
	classes := []string{"a", "a", "a", "a", "b", "b", "c"}
	vals := []float64{1, 1, 1, 1, 10, 12, 100}
	if got := medianOfClasses(classes, vals); got != 11 {
		t.Errorf("medianOfClasses = %v, want 11", got)
	}
}

func TestNormalisation(t *testing.T) {
	// A host half as fast as the reference takes twice calRefNS to calibrate;
	// wall time measured there counts half.
	if f := factor(2*calRefNS, 2*calRefNS); f != 0.5 {
		t.Errorf("factor on a half-speed host = %v, want 0.5", f)
	}
	if f := factor(calRefNS, 3*calRefNS); f != 0.5 {
		t.Errorf("factor uses the mean of the two calibrations: got %v, want 0.5", f)
	}
	cal := newCalibrator()
	rec := newRecorder(cal, nil)
	rec.op("x", 10, 4*time.Millisecond, false)
	rec.lat("x", 4e6)
	rec.op("x", 0, 0, true)
	rec.calibrate()
	if rec.res.ops != 2 || rec.res.failed != 1 || rec.res.work != 10 {
		t.Fatalf("recorder counted %+v", rec.res)
	}
	f := factor(cal.samples[0], cal.samples[1])
	if got := rec.res.normNS; math.Abs(got-4e6*f) > 1 {
		t.Errorf("normalised time %v, want %v", got, 4e6*f)
	}
	if got := rec.res.op[0].ns; math.Abs(got-4e6*f) > 1 {
		t.Errorf("normalised latency %v, want %v", got, 4e6*f)
	}
}

func TestJoinTraceArg(t *testing.T) {
	got := joinTraceArg([]string{"--workload", "x", "--trace", "1", "--seed", "3"})
	want := []string{"--workload", "x", "--trace=1", "--seed", "3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	got = joinTraceArg([]string{"-trace", "-seed", "3"})
	if want := []string{"-trace", "-seed", "3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// The generator's Go twins, not the system under test, decide what a
// generated program must return; here the reference interpreter agrees.
func TestGeneratedProgramsMatchOracle(t *testing.T) {
	mc := newMachine(1 << 24)
	for seed := int64(1); seed <= 3; seed++ {
		p := genProgram(rand.New(rand.NewSource(seed)), "p", 21, seed)
		m, err := frontCC(nil, p.Name, p.Source)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := runPasses(nil, m); err != nil {
			t.Fatal(err)
		}
		g, err := mc.load(nil, m, guestOpts{heapBytes: 1 << 20, reference: true})
		if err != nil {
			t.Fatal(err)
		}
		r, err := g.run("vm.run")
		if err != nil {
			t.Fatal(err)
		}
		if err := g.release(); err != nil {
			t.Fatal(err)
		}
		if r.Exit != p.Exit || r.OutputDigest != digestOutputs(p.Outputs) {
			t.Errorf("seed %d: interpreter returned %d, generator expects %d", seed, r.Exit, p.Exit)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		sha := func(seed int64) string {
			w, err := newWorkload(name, seed, scaleTest)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.setup(nil); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return w.inputsSHA()
		}
		a, b, c := sha(5), sha(5), sha(6)
		if a != b {
			t.Errorf("%s: same seed gave inputs %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 gave the same inputs", name)
		}
	}
}

func TestGoldenCoversSuite(t *testing.T) {
	var got []string
	for _, k := range suiteKernels() {
		got = append(got, k.Name)
	}
	if !reflect.DeepEqual(got, kernelNames) {
		t.Fatalf("suite kernels %v, the metric rows name %v", got, kernelNames)
	}
	for _, sc := range []scale{scaleFull, scaleTest} {
		g, err := loadGolden(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kernelNames {
			if _, ok := g[k]; !ok {
				t.Errorf("golden.json has no %s entry for %s", scaleKey(sc), k)
			}
		}
	}
}

// One cycle of every workload at test scale: every op must pass its check,
// every end-to-end metric must come out positive, and a traced run must
// produce every per-layer metric (its sweep runs the other three workloads).
func TestSmokeAllWorkloads(t *testing.T) {
	names := workloadNames
	if raceDetector {
		// Only serve-mixed runs ops on more than one goroutine; under the
		// detector the three single-client workloads would add a minute
		// each and nothing for it to watch.
		names = []string{"serve-mixed"}
	}
	for _, name := range names {
		rep, _, err := runWorkload(name, runOpts{seed: 1, sc: scaleTest})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.OpsFailed != 0 || rep.OpsAttempted == 0 {
			t.Errorf("%s: %d of %d ops failed", name, rep.OpsFailed, rep.OpsAttempted)
		}
		for _, d := range endToEndDefs {
			v, ok := rep.EndToEnd[d.Name]
			if !ok || !(v.Value > 0) || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", name, d.Name, v)
			}
		}
	}
	if raceDetector {
		return
	}
	rep, tr, err := runWorkload("compile-cold", runOpts{seed: 1, sc: scaleTest, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerLayer) != len(layerDefs()) {
		t.Errorf("traced run gave %d per-layer metrics, want %d", len(rep.PerLayer), len(layerDefs()))
	}
	if rep.PerLayer["runtime.move_rollbacks"].Value != 0 || rep.PerLayer["server.rejections"].Value != 0 {
		t.Errorf("rollbacks %v, rejections %v: both must be 0",
			rep.PerLayer["runtime.move_rollbacks"].Value, rep.PerLayer["server.rejections"].Value)
	}
	for _, s := range tr.spans {
		if s.End < s.Start || s.Op < 0 {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

// The names, units, directions and bounds the program emits must be the ones
// BENCHMARK.json declares, and the file must stay inside the driver's limits.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(top))
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	if len(bj.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics declared, %d emitted", len(bj.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		e := bj.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != bounds[d.Name] {
			t.Errorf("end-to-end %d: declared %+v, emitted %+v with bound %v", i, e, d, bounds[d.Name])
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	defs := layerDefs()
	if len(bj.PerLayer) != len(defs) || len(defs) > 128 {
		t.Fatalf("%d per-layer metrics declared, %d emitted (limit 128)", len(bj.PerLayer), len(defs))
	}
	for i, d := range defs {
		e := bj.PerLayer[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer %d: declared %+v, emitted %+v", i, e, d)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), defs...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q) breaks the naming rules or repeats", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bj.RunSeconds)
	}
}
