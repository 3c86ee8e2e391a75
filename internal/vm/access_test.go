package vm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"carat/internal/obs"
	"carat/internal/passes"
)

// The unguarded access step's cold paths. An access whose guard the compiler
// removed goes straight to memory behind a bounds compare (compileAccess);
// everything that compare or the mode test turns away — a fault, a
// swapped-out allocation, a paging-mode page walk — must come out exactly as
// the reference interpreter has it,
// which runs every access through dataAddr/translate.

// accessResult is every modeled observable of one run, error included.
type accessResult struct {
	ret            int64
	err            string
	instrs, cycles uint64
	cat            [obs.NumCategories]uint64
	funcs          []obs.FuncProfile
	memSum         uint64
}

// accessRun compiles src at lvl, loads it under cfg on the given engine,
// applies tweak and runs it, faults allowed.
func accessRun(t *testing.T, src string, lvl passes.Level, cfg Config, engine bool, tweak func(*VM)) (*VM, accessResult) {
	t.Helper()
	cfg.Closure = engine
	v, err := Load(compile(t, src, lvl), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tweak != nil {
		tweak(v)
	}
	ret, err := v.Run()
	r := accessResult{ret: ret, instrs: v.Instrs, cycles: v.Cycles, cat: v.Prof.Cat, memSum: v.Kernel().Mem.Checksum()}
	if err != nil {
		r.err = err.Error()
	}
	for _, f := range v.Prof.Funcs() {
		r.funcs = append(r.funcs, *f)
	}
	return v, r
}

// accessParity runs one case on both engines and requires the compiled
// engine's observables to equal the reference interpreter's; it returns the
// compiled run for the case's own assertions.
func accessParity(t *testing.T, src string, lvl passes.Level, cfg Config, tweak func(*VM)) (*VM, accessResult) {
	t.Helper()
	_, want := accessRun(t, src, lvl, cfg, reference, tweak)
	v, got := accessRun(t, src, lvl, cfg, compiled, tweak)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the compiled engine diverges from the reference interpreter:\n got %+v\nwant %+v", got, want)
	}
	return v, got
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.MemBytes = 1 << 23
	cfg.HeapBytes = 1 << 19
	return cfg
}

// touchSrc is a module whose @touch makes one unguarded access (LevelNone)
// at base + 8*3, through a single-index GEP the step fuses or, without one,
// at base itself; a pure in front of it rides the step's charge group.
func touchSrc(store, gep bool, addr uint64) string {
	base, q := addr, "%p"
	body := ""
	if gep {
		base, q = addr-24, "%q"
		body = "  %q = gep i64, %p, %i\n"
	}
	if store {
		body += "  store i64 %x, " + q + "\n  ret i64 %x\n"
	} else {
		body += "  %v = load i64, " + q + "\n  ret i64 %v\n"
	}
	return fmt.Sprintf(`module "touch"
func @touch(%%p: ptr, %%i: i64) -> i64 {
entry:
  %%x = add i64 %%i, 1
%s}
func @main() -> i64 {
entry:
  %%p = inttoptr i64 %d to ptr
  %%r = call i64 @touch(ptr %%p, i64 3)
  ret i64 %%r
}`, body, int64(base))
}

func TestUnguardedAccessColdPaths(t *testing.T) {
	t.Run("out-of-bounds", func(t *testing.T) {
		cfg := smallConfig()
		for _, at := range []struct {
			name string
			addr uint64
		}{
			{"address 0", 0},
			{"straddling the end", cfg.MemBytes - 4},
			{"past the end", cfg.MemBytes + 4096},
			{"addr+n wraps", ^uint64(0) - 3},
		} {
			for _, store := range []bool{false, true} {
				for _, gep := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/store=%v/gep=%v", at.name, store, gep), func(t *testing.T) {
						_, r := accessParity(t, touchSrc(store, gep, at.addr), passes.LevelNone, cfg, nil)
						if want := fmt.Sprintf("physical access out of bounds [%#x,+8)", at.addr); !strings.Contains(r.err, want) {
							t.Errorf("error %q, want %q", r.err, want)
						}
					})
				}
			}
		}
		// In bounds, the same module runs clean on both engines.
		if _, r := accessParity(t, touchSrc(true, true, cfg.MemBytes-8), passes.LevelNone, cfg, nil); r.err != "" || r.ret != 4 {
			t.Errorf("last word of memory: ret %d, err %q", r.ret, r.err)
		}
	})

	// A swapped-out allocation reached through an access whose fast path
	// turns the poisoned pointer away: unguarded, it fails the bounds compare
	// and cdataAddr swaps the allocation in and retries; guarded, the xcache
	// probe misses and the guard walk swaps it in. The first access of the
	// loop body is the one that meets the poison: GEP-fused over a poisoned
	// register, or plain over a poisoned pointer just loaded from memory. The
	// guarded bodies store a POINTER into the allocation: the guard is its own
	// instruction, so its swap-in patches the value register before the store
	// reads it, and the pointer loaded back must be live.
	t.Run("swap-poison", func(t *testing.T) {
		const fused, plain = "  %q = gep i64, %buf, %m\n  store i64 %i, %q\n  %v = load i64, %q\n",
			"  %h = load ptr, @slot\n  %w = load i64, %h\n"
		// An index the guard passes cannot bound (it comes from memory), so the
		// guards stay in the loop, one in front of each access.
		const idx = "  %k = load i64, @idx\n  %k1 = add i64 %k, 1\n  %k2 = and i64 %k1, 255\n  store i64 %k2, @idx\n"
		for _, c := range []struct {
			name    string
			lvl     passes.Level
			guarded int // guarded access steps the loop must lower to
			body    string
		}{
			{"gep-fused first", passes.LevelTrackingOnly, 0, fused + plain},
			{"plain first", passes.LevelTrackingOnly, 0, plain + fused},
			{"guarded, the value is the address", passes.LevelTracking, 3, idx +
				"  %x = gep ptr, %buf, %k\n  store ptr %x, %x\n  %n = load ptr, %x\n  %n2 = load ptr, %n\n" +
				"  %e = icmp eq ptr %n2, %x\n  %v = zext i1 %e to i64\n  %w = and i64 %i, 3\n"},
			{"guarded, the value is another register", passes.LevelTracking, 3, idx +
				"  %o = or i64 %k, 1\n  %x = gep ptr, %buf, %o\n  store ptr %buf, %x\n  %n = load ptr, %x\n" +
				"  %e = icmp eq ptr %n, %buf\n  %v = zext i1 %e to i64\n  %w = load i64, %n\n"},
		} {
			t.Run(c.name, func(t *testing.T) {
				src := `module "swappoison"
global @slot : ptr
global @idx : i64
func @malloc(%n: i64) -> ptr
func @main() -> i64 {
entry:
  %buf = call ptr @malloc(i64 2048)
  store ptr %buf, @slot
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %acc = phi i64 [0, ^entry], [%acc1, ^loop]
  %m = and i64 %i, 255
` + c.body + `  %s = add i64 %v, %w
  %acc1 = add i64 %acc, %s
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 600
  condbr %c, ^loop, ^done
done:
  ret i64 %acc1
}`
				v, clean := accessRun(t, src, c.lvl, smallConfig(), compiled, nil)
				if n := AccessShapes(v.prog); n[1][0]+n[1][1] < c.guarded {
					t.Fatalf("shapes %v: want %d guarded accesses, the case tests nothing", n, c.guarded)
				}
				v, r := accessParity(t, src, c.lvl, smallConfig(), func(v *VM) {
					v.SetMovePolicy(700, func() error {
						base, _, ok := v.Runtime().WorstCaseHeapAllocation(v.heap.base, v.heap.end)
						if !ok {
							return nil
						}
						_, err := v.SwapOutAllocation(base)
						return err
					})
				})
				if r.err != "" || r.ret != clean.ret {
					t.Errorf("with swaps: ret %d, err %q; without: ret %d", r.ret, r.err, clean.ret)
				}
				if n := v.Runtime().Stats.SwapIns.Get(); n < 3 {
					t.Errorf("%d swap-ins, want several: the poison never reached an access", n)
				}
			})
		}
	})

	// The same unguarded module under paging: no fast path at all, every
	// access walks the TLB hierarchy and demand-faults its page in, and the
	// engines charge the same walk and fault cycles.
	t.Run("paging-mode", func(t *testing.T) {
		const src = `module "paged"
global @a : [2048 x i64]
func @main() -> i64 {
entry:
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %acc = phi i64 [0, ^entry], [%acc1, ^loop]
  %p = gep i64, @a, %i
  store i64 %i, %p
  %v = load i64, %p
  %acc1 = add i64 %acc, %v
  %i1 = add i64 %i, 7
  %c = icmp slt i64 %i1, 2048
  condbr %c, ^loop, ^done
done:
  ret i64 %acc1
}`
		cfg := smallConfig()
		cfg.Mode = ModeTraditional
		_, r := accessParity(t, src, passes.LevelNone, cfg, nil)
		if r.err != "" || r.cat[obs.CatPagewalk] == 0 || r.cat[obs.CatPageFault] < 4*600 {
			t.Errorf("err %q, page-walk cycles %d, page-fault cycles %d: want walks and a fault per page of @a",
				r.err, r.cat[obs.CatPagewalk], r.cat[obs.CatPageFault])
		}
	})
}

// accessStepSrc is a self-loop whose body is eight accesses of the given
// shape to a 32 KB global — loads and stores alternating, each with its own
// GEP and two more pures — at LevelNone (unguarded) or LevelGuardsOnly
// (guarded). spread puts each access on its own page, so that an xcache
// flush makes every one of them miss; otherwise they share one, and no two
// evict each other. The instructions are the same whatever the shape; a pure
// between the GEP and the access keeps the GEP out of the step.
func accessStepSrc(gep, word, spread bool, iters int) string {
	typ, perPage := "i64", 512
	if word {
		typ, perPage = "i32", 1024
	}
	var body strings.Builder
	for j := 0; j < accessesPerIter; j++ {
		x, q := fmt.Sprintf("  %%x%d = xor i64 %%i, %d\n", j, j), fmt.Sprintf("  %%q%d = gep %s, @a, %%k%d\n", j, typ, j)
		off := 0
		if spread {
			off = j * perPage
		}
		fmt.Fprintf(&body, "  %%k%d = or i64 %%m, %d\n", j, off)
		if gep {
			body.WriteString(x + q)
		} else {
			body.WriteString(q + x)
		}
		if j%2 == 0 {
			fmt.Fprintf(&body, "  %%v%d = load %s, %%q%d\n", j, typ, j)
		} else {
			fmt.Fprintf(&body, "  store %s %%v%d, %%q%d\n", typ, j-1, j)
		}
	}
	return fmt.Sprintf(`module "step"
global @a : [%d x %s]
func @main() -> i64 {
entry:
  br ^loop
loop:
  %%i = phi i64 [0, ^entry], [%%i1, ^loop]
  %%m = and i64 %%i, 255
%s  %%i1 = add i64 %%i, 1
  %%c = icmp slt i64 %%i1, %d
  condbr %%c, ^loop, ^done
done:
  ret i64 0
}`, accessesPerIter*perPage, typ, body.String(), iters)
}

const accessesPerIter = 8

// BenchmarkAccessStep prices one access step by shape: guarded behind an
// xcache hit, guarded behind a miss (the xcache flushed before every block,
// each access on its own page),
// and unguarded; each with and without the fused GEP, 8-byte and 4-byte
// signed. ns/access is an eighth of the loop iteration: the access, its GEP
// and two more pures, plus its share of the loop's own three instructions.
//
//	go test -run '^$' -bench AccessStep ./internal/vm/
func BenchmarkAccessStep(b *testing.B) {
	const iters = 1 << 15
	for _, kind := range []string{"guarded-hit", "guarded-miss", "unguarded"} {
		for _, gep := range []bool{true, false} {
			for _, word := range []bool{false, true} {
				name := fmt.Sprintf("%s/gep=%v/i64=%v", kind, gep, !word)
				b.Run(name, func(b *testing.B) {
					lvl := passes.LevelGuardsOnly
					if kind == "unguarded" {
						lvl = passes.LevelNone
					}
					m := compile(b, accessStepSrc(gep, word, kind == "guarded-miss", iters), lvl)
					prog, err := NewProgram(m)
					if err != nil {
						b.Fatal(err)
					}
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						v, err := LoadProgram(prog, smallConfig())
						if err != nil {
							b.Fatal(err)
						}
						if kind == "guarded-miss" {
							v.SetMovePolicy(1, func() error { v.flushXCache(); return nil })
						}
						b.StartTimer()
						if _, err := v.Run(); err != nil {
							b.Fatal(err)
						}
						b.StopTimer()
						if err := v.Release(); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters*accessesPerIter), "ns/access")
				})
			}
		}
	}
}
