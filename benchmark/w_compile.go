package main

import (
	"math/rand"
	"strconv"
	"time"
)

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// coldHeapBytes is the guest heap for generated programs: caratd's capsule
// heap size, so a load pays what a tenant request pays rather than the 64 MB
// default a suite kernel gets.
const coldHeapBytes = 4 << 20

// coldProgram is one input of compile-cold: a generated program as CARAT-C
// or as the textual IR the C front end produces for it.
type coldProgram struct {
	class  string // "cc-60", "cir-240", ...
	isIR   bool
	source string
	want   program
}

// compileCold: each op takes one generated program from source text to its
// first result: front end, pass pipeline, sign and verify, load, first run,
// release. A cycle is four programs: two sizes, each as C and as IR.
type compileCold struct {
	seed  int64
	sc    scale
	progs []coldProgram
	mc    *machine
	sign  *signer
	order *rand.Rand
	cnt   countSet
	ih    inputsHash
}

func newCompileCold(seed int64, sc scale) *compileCold {
	return &compileCold{seed: seed, sc: sc, cnt: countSet{}, order: rand.New(rand.NewSource(seed))}
}

func (w *compileCold) setup(tr *tracer) error {
	sizes := []int{60, 240}
	if w.sc == scaleTest {
		sizes = []int{14, 28}
	}
	r := rand.New(rand.NewSource(w.seed))
	for _, n := range sizes {
		p := genProgram(r, "cold"+itoa(int64(n)), n, w.seed)
		m, err := frontCC(nil, p.Name, p.Source)
		if err != nil {
			return err
		}
		// The IR text is derived from the C source, which alone is hashed:
		// cc numbers its stack slots from a process-wide counter, so the
		// text's value names depend on how many programs were compiled before.
		text := printIR(m)
		w.ih.add(p.Source)
		w.progs = append(w.progs,
			coldProgram{"cc-" + itoa(int64(n)), false, p.Source, p},
			coldProgram{"cir-" + itoa(int64(n)), true, text, p})
	}
	var err error
	if w.sign, err = newSigner(w.seed); err != nil {
		return err
	}
	w.mc = newMachine(machineBytes)
	return nil
}

func (w *compileCold) clients() int { return 1 }

func (w *compileCold) cycle(recs []*recorder) error {
	rec := recs[0]
	for _, i := range w.order.Perm(len(w.progs)) {
		w.one(rec, w.progs[i])
		rec.calibrate()
	}
	return nil
}

func (w *compileCold) one(rec *recorder, p coldProgram) {
	tr := rec.tr
	tr.beginOp(p.class)
	fail := func() { rec.op(p.class, 0, 0, true) }
	t0 := time.Now()
	var m *module
	var err error
	if p.isIR {
		m, err = frontIR(tr, p.source)
	} else {
		m, err = frontCC(tr, p.want.Name, p.source)
	}
	if err != nil {
		fail()
		return
	}
	st, err := runPasses(tr, m)
	if err != nil {
		fail()
		return
	}
	if err := w.sign.signVerify(tr, m); err != nil {
		fail()
		return
	}
	t1 := time.Now()
	g, err := w.mc.load(tr, m, guestOpts{heapBytes: coldHeapBytes})
	if err != nil {
		fail()
		return
	}
	// main calls every function exactly once, so this run is dominated by
	// predecoding and closure-compiling each function on its first call.
	r, runErr := g.runAs("vm.tierup", float64(st.InstrsAfter))
	relErr := g.release()
	t2 := time.Now()
	ok := runErr == nil && relErr == nil && r.Exit == p.want.Exit && r.OutputDigest == digestOutputs(p.want.Outputs)
	rec.op(p.class, float64(st.InstrsAfter), t2.Sub(t0), !ok)
	if !ok {
		return
	}
	// Both latencies are per 1000 IR instructions after the passes, so the
	// four programs are comparable: op = source to first result, cold =
	// source to a signed, loadable module.
	k := float64(st.InstrsAfter) / 1000
	rec.lat(p.class, float64(t2.Sub(t0))/k)
	rec.cold(p.class, float64(t1.Sub(t0))/k)
	w.cnt.addRun(r)
	w.cnt["passes.instrs_before"] += float64(st.InstrsBefore)
	w.cnt["passes.instrs_after"] += float64(st.InstrsAfter)
	w.cnt["passes.guards_injected"] += float64(st.GuardsInjected)
	w.cnt["passes.guards_remaining"] += float64(st.GuardsRemaining)
	w.cnt["analysis.cache_hits"] += float64(st.AnalysisHits)
	w.cnt["analysis.cache_misses"] += float64(st.AnalysisMisses)
}

func (w *compileCold) extraTraced(*recorder) error { return nil }

func (w *compileCold) counts() map[string]float64 {
	out := w.cnt.copy()
	c := w.mc.counters()
	out["kernel.page_allocs"] = float64(c["carat.kernel.page_allocs"])
	out["kernel.page_moves"] = float64(c["carat.kernel.page_moves"])
	return out
}

func (w *compileCold) inputsSHA() string { return w.ih.String() }
