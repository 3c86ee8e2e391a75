package vm

import (
	"reflect"
	"sync"
	"testing"

	"carat/internal/passes"
)

// shareSrc is a multi-function program with a heap allocation escaped
// through a global (so a worst-case move storm has something to move) and a
// global table every function touches.
const shareSrc = `module "share"
global @slot : ptr
global @tab : [64 x i64]
func @malloc(%sz: i64) -> ptr
func @print_i64(%x: i64) -> void
func @mix(%x: i64, %k: i64) -> i64 {
entry:
  %m = and i64 %k, 63
  %p = gep i64, @tab, %m
  %old = load i64, %p
  %y = xor i64 %old, %x
  store i64 %y, %p
  ret i64 %y
}
func @walk(%n: i64) -> i64 {
entry:
  %b = load ptr, @slot
  br ^loop
loop:
  %j = phi i64 [0, ^entry], [%j1, ^loop]
  %s = phi i64 [0, ^entry], [%s2, ^loop]
  %r = gep i64, %b, %j
  %x = load i64, %r
  %s1 = add i64 %s, %x
  %s2 = call i64 @mix(i64 %s1, i64 %j)
  %j1 = add i64 %j, 1
  %c = icmp slt i64 %j1, %n
  condbr %c, ^loop, ^done
done:
  ret i64 %s2
}
func @main() -> i64 {
entry:
  %p = call ptr @malloc(i64 1024)
  store ptr %p, @slot
  br ^fill
fill:
  %i = phi i64 [0, ^entry], [%i1, ^fill]
  %q = gep i64, %p, %i
  store i64 %i, %q
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 128
  condbr %c, ^fill, ^lap
lap:
  %l = phi i64 [0, ^fill], [%l1, ^lap]
  %acc = phi i64 [0, ^fill], [%acc1, ^lap]
  %w = call i64 @walk(i64 128)
  call void @print_i64(i64 %w)
  %acc1 = add i64 %acc, %w
  %l1 = add i64 %l, 1
  %lc = icmp slt i64 %l1, 40
  condbr %lc, ^lap, ^done
done:
  ret i64 %acc1
}`

// sharedRun loads one VM over p — under a worst-case move storm when storm
// is set — runs it, and snapshots every modeled observable.
func sharedRun(p *Program, storm bool) (*VM, engineResult, error) {
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 23
	cfg.HeapBytes = 1 << 19
	v, err := LoadProgram(p, cfg)
	if err != nil {
		return nil, engineResult{}, err
	}
	if storm {
		v.SetMovePolicy(750, func() error { return v.InjectWorstCaseMove() })
	}
	ret, err := v.Run()
	return v, engineResult{
		ret: ret, cycles: v.Cycles, instrs: v.Instrs, checks: v.GuardChecks,
		evalCycles: v.eval.Cycles, faults: v.eval.Faults, cat: v.Prof.Cat,
		output: v.Output, memSum: v.Kernel().Mem.Checksum(),
	}, err
}

// TestProgramSharedAcrossVMs: eight VMs over one Program run concurrently
// (the point of running this under -race), one of them under a move storm.
// Each must produce exactly what it produces alone on a Program of its own,
// and the shared Program must end up holding one body per function, which
// every VM is bound to.
func TestProgramSharedAcrossVMs(t *testing.T) {
	mod := compile(t, shareSrc, passes.LevelTracking)
	var want [2]engineResult // [0] steady, [1] under the storm
	for i := range want {
		solo, err := NewProgram(mod)
		if err != nil {
			t.Fatal(err)
		}
		if _, want[i], err = sharedRun(solo, i == 1); err != nil {
			t.Fatal(err)
		}
	}
	if reflect.DeepEqual(want[0], want[1]) {
		t.Fatal("the storm run is indistinguishable from the steady one: no move happened")
	}

	p, err := NewProgram(mod)
	if err != nil {
		t.Fatal(err)
	}
	const n, stormVM = 8, 3
	vms := make([]*VM, n)
	got := make([]engineResult, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			vms[i], got[i], errs[i] = sharedRun(p, i == stormVM)
		}(i)
	}
	close(start)
	wg.Wait()

	var blocks uint64
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("vm %d: %v", i, errs[i])
		}
		w := want[0]
		if i == stormVM {
			w = want[1]
		}
		if !reflect.DeepEqual(got[i], w) {
			t.Errorf("vm %d diverges from its solo run:\n got %+v\nwant %+v", i, got[i], w)
		}
		b, deopts, _, _ := vms[i].ClosureStats()
		blocks += b
		if deopts != 0 {
			t.Errorf("vm %d: deopts = %d, want 0", i, deopts)
		}
	}
	var progBlocks uint64
	for idx, f := range mod.Funcs {
		if f.IsDecl() {
			continue
		}
		code := &p.funcs[idx]
		cf := code.cf.Load()
		if cf == nil {
			t.Fatalf("@%s: the program holds no compiled body", f.Name)
		}
		progBlocks += uint64(len(cf.blocks))
		for i, v := range vms {
			if fb := &v.bound[idx]; fb.cf != cf {
				t.Errorf("vm %d is not bound to the program's one body of @%s", i, f.Name)
			}
		}
	}
	// A VM counts the blocks it lowered itself; racing first calls may lower
	// a function twice, but never fewer times than once.
	if blocks < progBlocks {
		t.Errorf("VMs lowered %d blocks between them, the program holds %d", blocks, progBlocks)
	}

	// A VM loaded after the dust settled lowers nothing at all.
	late, res, err := sharedRun(p, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want[0]) {
		t.Errorf("late vm diverges from the solo run:\n got %+v\nwant %+v", res, want[0])
	}
	if b, _, hits, misses := late.ClosureStats(); b != 0 || hits+misses == 0 {
		t.Errorf("late vm: blocks = %d, ic hits+misses = %d; want 0 blocks and live call sites", b, hits+misses)
	}
}
