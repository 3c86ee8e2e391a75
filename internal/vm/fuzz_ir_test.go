package vm_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"carat/internal/ir"
	"carat/internal/passes"
	"carat/internal/vm"
	"carat/internal/workload"
)

// FuzzIRExecute executes what it parses. FuzzIRRoundTrip never runs a module
// and the seed-driven differentials never see parser output, so this is the
// one target that walks the path a hostile `kind:"cir"` request takes
// through caratd: ir.Parse → Verify → the full CARAT pipeline → load → run,
// on the reference interpreter and on the compiled engine. Nothing on that
// path may panic, whatever the text; and whenever the module gets as far as
// running, the two engines must agree on how the run ended — a run error is
// always a *vm.StopError, and its reason is the same on both — and on every
// modeled observable.
//
// testdata/fuzz/FuzzIRExecute holds the shapes that used to panic somewhere
// on that path or split the engines — a runtime entry point declared with
// the wrong arity, a thread joining itself, an entry function with
// parameters nobody passes, a phi in the entry block — each a Verify or run
// error now.
//
// The package is vm_test because the seeds come from workload, which
// imports vm.
func FuzzIRExecute(f *testing.F) {
	hostile, err := filepath.Glob("../ir/testdata/hostile/*.cir")
	if err != nil || len(hostile) == 0 {
		f.Fatalf("hostile seeds: %v, %v", hostile, err)
	}
	for _, file := range hostile {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(execKernel(f, 2, passes.LevelNone).String())
	for _, w := range workload.All() {
		f.Add(w.Build(workload.ScaleTest).String())
	}
	type outcome struct {
		failed                 bool
		stop                   vm.StopReason
		ret                    int64
		instrs, cycles, memSum uint64
		output                 []int64
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil || m.Verify() != nil {
			return
		}
		pl := passes.Build(passes.LevelTracking)
		pl.Workers = 1
		if err := pl.Run(m); err != nil {
			t.Fatalf("the pipeline broke a module that verified: %v", err)
		}
		p, err := vm.NewProgram(m)
		if err != nil {
			t.Fatalf("the pipeline's output does not load: %v", err)
		}
		run := func(compiled bool) (outcome, error) {
			cfg := vm.DefaultConfig()
			cfg.MemBytes, cfg.HeapBytes, cfg.StackBytes = 4<<20, 256<<10, 64<<10
			cfg.MaxInstrs = 50_000
			cfg.Closure = compiled
			v, err := vm.LoadProgram(p, cfg)
			if err != nil {
				return outcome{failed: true}, err // too big for the machine
			}
			ret, err := v.Run()
			var se *vm.StopError
			if err != nil && !errors.As(err, &se) {
				t.Fatalf("Run returned an untyped error: %v", err)
			}
			o := outcome{err != nil, "", ret, v.Instrs, v.Cycles, v.Kernel().Mem.Checksum(), v.Output}
			if se != nil {
				o.stop = se.Reason
			}
			return o, err
		}
		want, refErr := run(false)
		got, err := run(true)
		if got.failed != want.failed || got.stop != want.stop || !want.failed && !reflect.DeepEqual(got, want) {
			t.Errorf("the engines diverge:\n compiled  %+v (%v)\n reference %+v (%v)", got, err, want, refErr)
		}
	})
}
