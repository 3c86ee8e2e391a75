package vm

import (
	"fmt"
	"strings"
	"testing"

	"carat/internal/ir"
)

// The compiled engine runs a function as one dispatch loop over its blocks
// (ccall): each block's terminator is a cterm, evaluated in a switch. These
// guests take every form of that switch, and the reference interpreter, which
// shares no lowering, is the oracle.

// terminatorForms holds one guest per terminator form. Every fused compare's
// result is read again in another block, so a compare that branched right
// but left its register unwritten changes the result.
var terminatorForms = []struct {
	name, src string
	want      int64
	err       string // a substring of the error text, "" for none
}{
	{"br with three phis", `module "br3"
func @main() -> i64 {
entry:
  br ^head
head:
  %i = phi i64 [0, ^entry], [%i1, ^latch]
  %a = phi i64 [1, ^entry], [%b, ^latch]
  %b = phi i64 [2, ^entry], [%a, ^latch]
  %c = icmp slt i64 %i, 5
  condbr %c, ^body, ^done
body:
  %i1 = add i64 %i, 1
  br ^latch
latch:
  br ^head
done:
  %r = mul i64 %a, 10
  %s = add i64 %r, %b
  ret i64 %s
}`, 21, ""}, // five swaps in parallel: a=2, b=1

	{"condbr on a phi", `module "condphi"
func @main() -> i64 {
entry:
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %go = phi i1 [1, ^entry], [%c, ^loop]
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 7
  condbr %go, ^loop, ^done
done:
  ret i64 %i1
}`, 8, ""}, // the branch lags the compare by one trip

	{"fused signed icmp", `module "slt"
func @main() -> i64 {
entry:
  br ^loop
loop:
  %i = phi i64 [-10, ^entry], [%i1, ^loop]
  %i1 = add i64 %i, 1
  %c = icmp sgt i64 %i1, -3
  condbr %c, ^done, ^loop
done:
  %z = zext i1 %c to i64
  %r = mul i64 %i1, 10
  %s = sub i64 %r, %z
  ret i64 %s
}`, -21, ""}, // exits at -2 with the compare true

	{"fused unsigned i8 icmp", `module "ult8"
func @main() -> i64 {
entry:
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %t = trunc i64 %i to i8
  %i1 = add i64 %i, 1
  %c = icmp uge i8 %t, -56
  condbr %c, ^done, ^loop
done:
  %z = zext i1 %c to i64
  %r = mul i64 %i, 10
  %s = add i64 %r, %z
  ret i64 %s
}`, 2001, ""}, // -56 is 200 unsigned: exits at i = 200 with the compare true

	{"fused fcmp on NaN", `module "nan"
func @main() -> i64 {
entry:
  %nan = fdiv f64 0.0, 0.0
  br ^loop
loop:
  %x = phi f64 [0.0, ^entry], [%x1, ^loop]
  %x1 = fadd f64 %x, 1.0
  %c = fcmp slt f64 %x1, %nan
  condbr %c, ^loop, ^ne
ne:
  %d = fcmp ne f64 %nan, %nan
  condbr %d, ^yes, ^no
yes:
  %cz = zext i1 %c to i64
  %dz = zext i1 %d to i64
  %r = mul i64 %dz, 10
  %s = add i64 %r, %cz
  ret i64 %s
no:
  ret i64 -1
}`, 10, ""}, // NaN orders below nothing and equals nothing, itself included

	{"ret value and ret void", `module "rets"
global @g : i64
func @set(%x: i64) -> void {
entry:
  store i64 %x, @g
  ret void
}
func @get() -> i64 {
entry:
  %v = load i64, @g
  %w = add i64 %v, 1
  ret i64 %w
}
func @main() -> i64 {
entry:
  call void @set(i64 41)
  %r = call i64 @get()
  ret i64 %r
}`, 42, ""},

	{"unreachable", `module "unreach"
func @boom(%x: i64) -> i64 {
entry:
  %c = icmp slt i64 %x, 3
  condbr %c, ^ok, ^dead
ok:
  ret i64 %x
dead:
  unreachable
}
func @main() -> i64 {
entry:
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %v = call i64 @boom(i64 %i)
  %i1 = add i64 %i, 1
  br ^loop
}`, 0, "reached unreachable in @boom"},
}

// TestTerminatorForms runs every terminator form on both engines: result,
// instructions, cycles and error text must agree, and match the guest's own
// answer.
func TestTerminatorForms(t *testing.T) {
	for _, c := range terminatorForms {
		t.Run(c.name, func(t *testing.T) {
			type outcome struct {
				ret            int64
				instrs, cycles uint64
				err            string
			}
			var got [2]outcome
			for i, engine := range []bool{reference, compiled} {
				cfg := smallConfig()
				cfg.Closure = engine
				v, err := Load(ir.MustParse(c.src), cfg)
				if err != nil {
					t.Fatal(err)
				}
				ret, err := v.Run()
				got[i] = outcome{ret: ret, instrs: v.Instrs, cycles: v.Cycles}
				if err != nil {
					got[i].err = err.Error()
				}
			}
			if got[0] != got[1] {
				t.Errorf("the engines diverge:\nreference %+v\n compiled %+v", got[0], got[1])
			}
			if r := got[1]; c.err == "" && (r.err != "" || r.ret != c.want) {
				t.Errorf("ret %d, err %q; want %d", r.ret, r.err, c.want)
			} else if c.err != "" && !strings.Contains(r.err, c.err) {
				t.Errorf("err %q, want one that says %q", r.err, c.err)
			}
		})
	}
}

// TestCallAllocs: a compiled call allocates its frame, its register file and
// its cenv, and nothing else, whatever phis its edges carry: two phis copy
// through locals, so @f's loop needs no copy scratch. The count is the
// difference between runs making 100 and 500 calls, so loading and @main's
// own activation drop out.
func TestCallAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	perCall := func(calls int) float64 {
		src := fmt.Sprintf(`module "calls"
func @f(%%n: i64) -> i64 {
entry:
  br ^loop
loop:
  %%i = phi i64 [0, ^entry], [%%i1, ^loop]
  %%s = phi i64 [0, ^entry], [%%s1, ^loop]
  %%s1 = add i64 %%s, %%i
  %%i1 = add i64 %%i, 1
  %%c = icmp slt i64 %%i1, %%n
  condbr %%c, ^loop, ^done
done:
  ret i64 %%s1
}
func @main() -> i64 {
entry:
  br ^loop
loop:
  %%k = phi i64 [0, ^entry], [%%k1, ^loop]
  %%v = call i64 @f(i64 4)
  %%k1 = add i64 %%k, 1
  %%c = icmp slt i64 %%k1, %d
  condbr %%c, ^loop, ^done
done:
  ret i64 %%v
}`, calls)
		m := ir.MustParse(src)
		const readings = 5
		vms := make([]*VM, 2*readings) // AllocsPerRun(1, f) calls f twice
		for i := range vms {
			var err error
			if vms[i], err = Load(m, smallConfig()); err != nil {
				t.Fatal(err)
			}
		}
		run := func() {
			v := vms[0]
			vms = vms[1:]
			if ret, err := v.Run(); err != nil || ret != 6 {
				t.Fatalf("run = %d, %v", ret, err)
			}
		}
		least := testing.AllocsPerRun(1, run)
		for i := 1; i < readings; i++ {
			least = min(least, testing.AllocsPerRun(1, run))
		}
		return least
	}
	if n := (perCall(500) - perCall(100)) / 400; n > 3.05 {
		t.Errorf("a compiled call makes %.2f allocations, want 3: frame, registers and cenv", n)
	}
}

// BenchmarkBlockDispatch prices the per-block layer: a loop in the shape
// ir.Builder.Loop emits — header, body, latch — whose body is one pure
// instruction, so almost all of a trip is three block heads, two branches
// and a conditional branch on a fused compare. ns/block is per block
// executed.
//
//	go test -run '^$' -bench BlockDispatch ./internal/vm/
func BenchmarkBlockDispatch(b *testing.B) {
	const iters = 1 << 16
	m := ir.NewModule("dispatch")
	bld := ir.NewBuilder(m.AddFunc("main", ir.I64))
	bld.Loop(bld.I64(0), bld.I64(iters), bld.I64(1), func(i ir.Value) { bld.Xor(i, bld.I64(7)) })
	bld.Ret(bld.I64(0))
	prog, err := NewProgram(m)
	if err != nil {
		b.Fatal(err)
	}
	var blocks uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		v, err := LoadProgram(prog, smallConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := v.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		blocks += 3*iters + 2 // entry, header·(iters+1), body and latch·iters, exit
		if err := v.Release(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(blocks), "ns/block")
}
