package main

import (
	"math/rand"
	"time"
)

// machineBytes sizes the one machine all guests of a workload share:
// vm.DefaultConfig's 256 MB.
const machineBytes = 1 << 28

// suiteGuest sizes a suite kernel's guest: vm.DefaultConfig's 64 MB heap at
// full scale; at test scale 16 MB, which every ScaleTest kernel fits in, so
// that a smoke run is not mostly page zeroing.
func suiteGuest(sc scale) guestOpts {
	if sc == scaleTest {
		return guestOpts{heapBytes: 16 << 20}
	}
	return guestOpts{}
}

// countSet accumulates exact counts under metric-style names.
type countSet map[string]float64

func (c countSet) addRun(r runResult) {
	c["vm.instrs"] += float64(r.Instrs)
	c["vm.cycles"] += float64(r.Cycles)
	c["vm.guard_checks"] += float64(r.GuardChecks)
	c["vm.closure.deopts"] += float64(r.ClosureDeopts)
	c["vm.closure.blocks"] += float64(r.ClosureBlocks)
	c["vm.closure.ic_hits"] += float64(r.ClosureICHits)
	c["vm.closure.ic_misses"] += float64(r.ClosureICMisses)
	c["guard.xcache.hits"] += float64(r.XCacheHits)
	c["guard.xcache.misses"] += float64(r.XCacheMisses)
}

func (c countSet) copy() map[string]float64 {
	out := make(map[string]float64, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// compiledKernel is a suite kernel already through the pass pipeline.
type compiledKernel struct {
	name string
	mod  *module
	gold goldenEntry
}

func compileKernels(names []string, sc scale, ih *inputsHash) ([]compiledKernel, error) {
	gold, err := loadGolden(sc)
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []compiledKernel
	for _, k := range suiteKernels() {
		if len(names) > 0 && !want[k.Name] {
			continue
		}
		m := k.buildKernel(sc == scaleFull)
		if _, err := runPasses(nil, m); err != nil {
			return nil, err
		}
		ih.add("kernel", k.Name, scaleKey(sc))
		out = append(out, compiledKernel{k.Name, m, gold[k.Name]})
	}
	return out, nil
}

// execSteady: each op loads one precompiled suite kernel into the shared
// machine, runs it on the closure tier and releases it; a cycle is all 22.
type execSteady struct {
	seed    int64
	sc      scale
	kernels []compiledKernel
	mc      *machine
	order   *rand.Rand
	cnt     countSet
	ih      inputsHash
	// modelDrift counts runs whose model counts differ from golden.json.
	modelDrift int
}

func newExecSteady(seed int64, sc scale) *execSteady {
	return &execSteady{seed: seed, sc: sc, cnt: countSet{}, order: rand.New(rand.NewSource(seed))}
}

func (w *execSteady) setup(tr *tracer) error {
	var err error
	w.kernels, err = compileKernels(nil, w.sc, &w.ih)
	if err != nil {
		return err
	}
	w.ih.add("order-seed", itoa(w.seed))
	w.mc = newMachine(machineBytes)
	return nil
}

func (w *execSteady) clients() int { return 1 }

func (w *execSteady) cycle(recs []*recorder) error {
	rec := recs[0]
	for _, i := range w.order.Perm(len(w.kernels)) {
		k := w.kernels[i]
		rec.tr.beginOp(k.name)
		t0 := time.Now()
		g, err := w.mc.load(rec.tr, k.mod, suiteGuest(w.sc))
		if err != nil {
			rec.op(k.name, 0, 0, true)
			continue
		}
		t1 := time.Now()
		r, runErr := g.run("vm.run")
		t2 := time.Now()
		relErr := g.release()
		t3 := time.Now()
		ok := runErr == nil && relErr == nil && k.gold.matches(r)
		rec.op(k.name, float64(r.Instrs), t3.Sub(t0), !ok)
		if ok {
			// op latency: run time per 10 M guest instructions; cold: the
			// part of the op that is not steady-state execution.
			rec.lat(k.name, float64(t2.Sub(t1))/(float64(r.Instrs)/1e7))
			rec.cold(k.name, float64(t1.Sub(t0)+t3.Sub(t2)))
			w.cnt.addRun(r)
			if !k.gold.sameModel(r) {
				w.modelDrift++
			}
		}
		rec.calibrate()
	}
	return nil
}

func (w *execSteady) extraTraced(*recorder) error { return nil }

func (w *execSteady) counts() map[string]float64 {
	out := w.cnt.copy()
	c := w.mc.counters()
	out["kernel.page_allocs"] = float64(c["carat.kernel.page_allocs"])
	out["kernel.page_moves"] = float64(c["carat.kernel.page_moves"])
	out["model_drift_runs"] = float64(w.modelDrift)
	return out
}

func (w *execSteady) inputsSHA() string { return w.ih.String() }
