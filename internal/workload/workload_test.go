package workload

import (
	"testing"

	"carat/internal/ir"
	"carat/internal/passes"
	"carat/internal/vm"
)

func TestAllRegistered(t *testing.T) {
	ws := All()
	if len(ws) != 22 {
		names := make([]string, len(ws))
		for i, w := range ws {
			names[i] = w.Name
		}
		t.Fatalf("registered %d workloads, want 22: %v", len(ws), names)
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if seen[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
		if w.Desc == "" || w.Suite == "" {
			t.Errorf("%s: missing metadata", w.Name)
		}
	}
	for _, name := range []string{"HPCCG", "canneal", "mcf_s", "xz_s", "EP"} {
		if !seen[name] {
			t.Errorf("missing workload %s", name)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("notabenchmark"); err == nil {
		t.Error("Get of unknown workload succeeded")
	}
	w, err := Get("canneal")
	if err != nil || w.Name != "canneal" {
		t.Errorf("Get(canneal) = %v, %v", w, err)
	}
}

func TestAllBuildAndVerify(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			m := w.Build(ScaleTest)
			if err := m.Verify(); err != nil {
				t.Fatalf("verify: %v", err)
			}
			if m.Func("main") == nil {
				t.Fatal("no main")
			}
			if n := m.NumInstrs(); n < 10 {
				t.Errorf("suspiciously small program: %d instructions", n)
			}
		})
	}
}

// runCfg runs a workload module under the given pipeline level and mode,
// returning the VM.
func runCfg(t *testing.T, w *Workload, lvl passes.Level, mode vm.Mode) (*vm.VM, int64) {
	t.Helper()
	m := w.Build(ScaleTest)
	pl := passes.Build(lvl)
	if err := pl.Run(m); err != nil {
		t.Fatalf("%s: passes: %v", w.Name, err)
	}
	cfg := vm.DefaultConfig()
	cfg.Mode = mode
	cfg.MemBytes = 1 << 27
	cfg.HeapBytes = 1 << 24
	v, err := vm.Load(m, cfg)
	if err != nil {
		t.Fatalf("%s: load: %v", w.Name, err)
	}
	ret, err := v.Run()
	if err != nil {
		t.Fatalf("%s: run: %v", w.Name, err)
	}
	return v, ret
}

func TestAllRunBaseline(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			v, _ := runCfg(t, w, passes.LevelNone, vm.ModeCARAT)
			if v.Instrs == 0 {
				t.Error("no instructions executed")
			}
		})
	}
}

func TestAllRunFullCARATMatchesBaseline(t *testing.T) {
	// The fully instrumented build (guards + opts + tracking) must compute
	// the same result as the uninstrumented baseline for every benchmark —
	// the suite-wide semantic-preservation invariant.
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			_, base := runCfg(t, w, passes.LevelNone, vm.ModeCARAT)
			vFull, full := runCfg(t, w, passes.LevelTracking, vm.ModeCARAT)
			if base != full {
				t.Errorf("results differ: baseline %d, CARAT %d", base, full)
			}
			if vFull.GuardChecks == 0 {
				t.Error("no guards executed in instrumented build")
			}
		})
	}
}

func TestAllRunTraditional(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			_, base := runCfg(t, w, passes.LevelNone, vm.ModeCARAT)
			vT, trad := runCfg(t, w, passes.LevelNone, vm.ModeTraditional)
			if base != trad {
				t.Errorf("traditional-mode result differs: %d vs %d", base, trad)
			}
			if vT.Hierarchy().Stats.Lookups.Get() == 0 {
				t.Error("no TLB activity in traditional mode")
			}
		})
	}
}

func TestLocalityClassesDiffer(t *testing.T) {
	// The suite must spread across the MPKI spectrum: canneal (random over
	// a big footprint) far above EP (tiny footprint).
	mpki := func(name string) float64 {
		w, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := runCfg(t, w, passes.LevelNone, vm.ModeTraditional)
		return v.Hierarchy().DTLBMPKI(v.Instrs)
	}
	ep := mpki("EP")
	can := mpki("canneal")
	if can < ep*5 {
		t.Errorf("canneal MPKI (%.3f) not well above EP (%.3f)", can, ep)
	}
}

func TestNABIsEscapeOutlier(t *testing.T) {
	// nab_s: few allocations with very many escapes (Figure 5).
	w, _ := Get("nab_s")
	v, _ := runCfg(t, w, passes.LevelTracking, vm.ModeCARAT)
	hist := v.Runtime().EscapeHistogram()
	max := 0
	for _, h := range hist {
		if h > max {
			max = h
		}
	}
	if max < 100 {
		t.Errorf("nab_s max escapes per allocation = %d, want >= 100", max)
	}
}

func TestSwaptionsChurnsAllocations(t *testing.T) {
	w, _ := Get("swaptions")
	v, _ := runCfg(t, w, passes.LevelTracking, vm.ModeCARAT)
	st := &v.Runtime().Stats
	if st.Frees.Get() < 100 || st.Allocs.Get() < 100 {
		t.Errorf("swaptions alloc/free churn too low: %d allocs, %d frees", st.Allocs.Get(), st.Frees.Get())
	}
}

func TestTable1ShapesPerClass(t *testing.T) {
	// Affine HPC kernels must see substantial Opt 2 (merge) activity;
	// every workload's fractions must sum to 1.
	for _, name := range []string{"LU", "lbm_s", "blackscholes"} {
		w, _ := Get(name)
		m := w.Build(ScaleTest)
		pl := passes.Build(passes.LevelGuardsOpt)
		if err := pl.Run(m); err != nil {
			t.Fatal(err)
		}
		s := pl.Stats
		sum := s.FracUntouched() + s.FracHoisted() + s.FracMerged() + s.FracRemoved()
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: fractions sum %.3f", name, sum)
		}
		if name == "LU" && s.FracMerged() == 0 {
			t.Errorf("LU: no guards merged by scalar evolution")
		}
	}
}

func TestScalesGrow(t *testing.T) {
	w, _ := Get("EP")
	small := w.Build(ScaleTest)
	big := w.Build(ScaleSmall)
	// Program text identical, but loop bounds must differ.
	if small.String() == big.String() {
		t.Error("scales produce identical programs")
	}
}

func TestRandDeterministic(t *testing.T) {
	// Two builds of the same workload produce identical IR (bit-for-bit):
	// randomness lives inside the program, not the builder.
	w, _ := Get("canneal")
	a := w.Build(ScaleTest).String()
	b := w.Build(ScaleTest).String()
	if a != b {
		t.Error("workload build not deterministic")
	}
	_ = ir.Module{}
}
