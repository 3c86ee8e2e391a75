package vm_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"carat/internal/ir"
	"carat/internal/passes"
	"carat/internal/vm"
	"carat/internal/workload"
)

// loweringShapes holds what the kernels never hand the lowering: a function
// address as an operand (a function reloc), a call with arguments and one
// returning void, a GEP through an array of structs with two dynamic
// indices, a select, a three-phi edge, a float constant, an immediate equal
// to another immediate (interned once) and an unreachable.
const loweringShapes = `module "shapes"
global @tbl : [8 x {i64, [4 x i64]}]
global @fslot : ptr
func @print_i64(%x: i64) -> void
func @note(%x: i64) -> void {
entry:
  call void @print_i64(i64 %x)
  ret void
}
func @pick(%i: i64, %j: i64) -> i64 {
entry:
  %p = gep {i64, [4 x i64]}, @tbl, %i, 1, %j
  %v = load i64, %p
  %c = icmp ult i64 %v, 7
  %s = select i64 %c, %v, 7
  ret i64 %s
}
func @dead() -> i64 {
entry:
  unreachable
}
func @main() -> i64 {
entry:
  store ptr @pick, @fslot
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %a = phi i64 [7, ^entry], [%a1, ^loop]
  %f = phi f64 [1.5, ^entry], [%f1, ^loop]
  %m = and i64 %i, 3
  %x = call i64 @pick(i64 %m, i64 %m)
  call void @note(i64 %x)
  %a1 = add i64 %a, %x
  %f1 = fmul f64 %f, 1.5
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 7
  condbr %c, ^loop, ^done
done:
  %fi = fptosi f64 %f1 to i64
  %r = add i64 %a1, %fi
  ret i64 %r
}`

// TestLoweringGolden pins what first-call lowering decides for every
// function of the 22 kernels at LevelTracking: slot numbering, pointer
// slots, pool order and contents, relocs, block count, phi scratch width.
// testdata/lowering_golden.txt was recorded at the commit before the
// lowering was rebuilt to allocate in proportion to what it lowers (PR 22);
// a line changes only when the lowering is MEANT to decide differently.
func TestLoweringGolden(t *testing.T) {
	var sb strings.Builder
	add := func(name string, m *ir.Module) {
		p, err := vm.NewProgram(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, line := range vm.LoweringSummary(p) {
			sb.WriteString(name + "/" + line + "\n")
		}
	}
	for _, w := range workload.All() {
		m := w.Build(workload.ScaleTest)
		if err := passes.Build(passes.LevelTracking).Run(m); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		add(w.Name, m)
	}
	// The kernels are one @main each; the exec-bench program adds call
	// sites, function relocs and multi-phi edges.
	add("execbench", execKernel(t, 2, passes.LevelTracking))
	m := ir.MustParse(loweringShapes)
	if err := passes.Build(passes.LevelTracking).Run(m); err != nil {
		t.Fatal(err)
	}
	add("shapes", m)
	got := sb.String()
	want, err := os.ReadFile("testdata/lowering_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, g := range strings.Split(got, "\n") {
		if i >= len(wantLines) || g != wantLines[i] {
			w := "(no such line)"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("lowering changed:\n got  %s\n want %s", g, w)
		}
	}
}

// accessShapesGolden is, per suite kernel at LevelTracking, how many access
// steps the lowering makes of each shape: guarded with and without a fused
// GEP, then unguarded with and without.
const accessShapesGolden = `HPCCG 5 1 2 4
CG 3 1 4 6
EP 0 1 1 5
FT 0 1 3 3
LU 3 2 3 0
blackscholes 0 1 5 0
bodytrack 1 2 4 4
canneal 0 1 3 6
fluidanimate 6 1 3 0
freqmine 3 5 2 11
streamcluster 0 0 4 5
swaptions 0 2 2 3
x264 1 1 2 6
deepsjeng_s 0 1 3 4
lbm_s 0 1 7 0
mcf_s 1 8 4 9
nab_s 0 4 6 4
namd_r 3 1 2 4
omnetpp_s 2 9 1 10
x264_s 1 1 2 6
xalancbmk_s 3 4 2 11
xz_s 0 1 6 8
total 32 49 71 109
`

// selfStoreSrc stores a GEP's own result through it: the fused step must
// write the GEP's slot before it reads the value to store.
const selfStoreSrc = `module "selfstore"
global @a : [8 x i64]
func @main() -> i64 {
entry:
  %z = load i64, @a
  %i = add i64 %z, 3
  %p = gep i64, @a, %i
  store ptr %p, %p
  %v = load i64, %p
  ret i64 %v
}`

// TestAccessShapes pins which accesses fuse with what: a pass that stops
// leaving a guard or a single-index GEP directly in front of its access, or
// a lowering change that stops recognising one, changes a count here and not
// just a benchmark. The kernels have more unguarded accesses than guarded
// ones (180 to 81): the unguarded step is the common case.
func TestAccessShapes(t *testing.T) {
	var sb strings.Builder
	var total [2][2]int
	for _, w := range workload.All() {
		m := w.Build(workload.ScaleTest)
		if err := passes.Build(passes.LevelTracking).Run(m); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		p, err := vm.NewProgram(m)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		n := vm.AccessShapes(p)
		fmt.Fprintf(&sb, "%s %d %d %d %d\n", w.Name, n[1][1], n[1][0], n[0][1], n[0][0])
		for g := range n {
			for f := range n[g] {
				total[g][f] += n[g][f]
			}
		}
	}
	fmt.Fprintf(&sb, "total %d %d %d %d\n", total[1][1], total[1][0], total[0][1], total[0][0])
	if got := sb.String(); got != accessShapesGolden {
		t.Errorf("access shapes changed:\n got:\n%s\nwant:\n%s", got, accessShapesGolden)
	}

	for _, c := range []struct {
		lvl  passes.Level
		want [2][2]int // [guarded][GEP-fused]
	}{
		{passes.LevelNone, [2][2]int{{2, 1}, {0, 0}}},
		{passes.LevelGuardsOnly, [2][2]int{{0, 0}, {2, 1}}},
	} {
		for _, closure := range []bool{false, true} {
			m := ir.MustParse(selfStoreSrc)
			if err := passes.Build(c.lvl).Run(m); err != nil {
				t.Fatal(err)
			}
			cfg := vm.DefaultConfig()
			cfg.MemBytes, cfg.HeapBytes, cfg.Closure = 1<<22, 1<<18, closure
			v, err := vm.Load(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := vm.NewProgram(m)
			if err != nil {
				t.Fatal(err)
			}
			if n := vm.AccessShapes(p); n != c.want {
				t.Errorf("self-store at level %d: shapes %v, want %v", c.lvl, n, c.want)
			}
			ret, err := v.Run()
			if want := v.GlobalAddr(m.Global("a")) + 24; err != nil || uint64(ret) != want {
				t.Errorf("self-store at level %d (compiled=%v): ret %#x, err %v; want the slot's own address %#x",
					c.lvl, closure, ret, err, want)
			}
		}
	}
}
