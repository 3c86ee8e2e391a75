package vm_test

import (
	"os"
	"strings"
	"testing"

	"carat/internal/bench"
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
	m, err := bench.ExecBenchModule(2, passes.LevelTracking)
	if err != nil {
		t.Fatal(err)
	}
	add("execbench", m)
	m = ir.MustParse(loweringShapes)
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
