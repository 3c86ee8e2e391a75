package passes_test

// The pipeline's output is pinned: what the passes emit, and what they count
// while doing so, is a function of the module and the level alone, and a
// change to how the middle end spends host time must not move either. An
// external test package, because the inputs come from packages that import
// ir beside passes.

import (
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"carat/internal/cc"
	"carat/internal/ir"
	"carat/internal/passes"
	"carat/internal/workload"
)

var levels = []passes.Level{passes.LevelNone, passes.LevelGuardsOnly, passes.LevelGuardsOpt,
	passes.LevelTracking, passes.LevelTrackingOnly}

// sourcelangProgram is the CARAT-C text examples/sourcelang compiles, read
// out of the example's own source so the pin follows the example.
func sourcelangProgram(t *testing.T) string {
	file, err := parser.ParseFile(token.NewFileSet(), "../../examples/sourcelang/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range file.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, s := range gd.Specs {
			vs := s.(*ast.ValueSpec)
			if lit, ok := vs.Values[0].(*ast.BasicLit); ok && vs.Names[0].Name == "program" {
				src, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				return src
			}
		}
	}
	t.Fatal("examples/sourcelang/main.go declares no program constant")
	return ""
}

// shapesSrc holds what the suite kernels never hand the passes: a dead chain
// DCE needs three rounds for, a dead load, a division it must keep and one it
// may drop, two loads of one address (the second guard is redundant), calloc
// and a variable-count alloca (both get a size multiply before them and a
// callback after), pointer stores back to back, frees, and a phi.
const shapesSrc = `module "shapes"
global @slot : ptr
global @tbl : [64 x i64]
func @malloc(%sz: i64) -> ptr
func @calloc(%n: i64, %sz: i64) -> ptr
func @free(%p: ptr) -> void
func @leaf(%x: i64) -> i64 {
entry:
  %d1 = add i64 %x, 1
  %d2 = mul i64 %d1, 3
  %d3 = xor i64 %d2, 5
  %trap = sdiv i64 %x, %x
  %safe = sdiv i64 %x, 2
  %p = gep i64, @tbl, 3
  %dl = load i64, %p
  %v = load i64, %p
  %w = load i64, %p
  %s = add i64 %v, %w
  ret i64 %s
}
func @main(%n: i64) -> i64 {
entry:
  %a = call ptr @calloc(i64 %n, i64 8)
  %b = call ptr @malloc(i64 64)
  %st = alloca i64, %n
  %fx = alloca [4 x i64], 2
  store ptr %a, @slot
  store ptr %b, %a
  store i64 7, %b
  %c = icmp slt i64 %n, 4
  condbr %c, ^then, ^else
then:
  %t = load i64, %b
  br ^join
else:
  %e = call i64 @leaf(i64 %n)
  store i64 %e, %b
  br ^join
join:
  %r = phi i64 [%t, ^then], [%e, ^else]
  %again = load i64, %b
  call void @free(ptr %a)
  call void @free(ptr %b)
  %sum = add i64 %r, %again
  ret i64 %sum
}`

// loopShapesSrc holds the loop shapes whose code moves between blocks: a
// chain of invariant adds each using the one before it (LICM hoists the whole
// chain into the preheader), a store to an invariant address two loops deep
// (its guard hoists one level per sweep), an affine walk over an i32
// induction variable from a non-constant start to a non-constant bound (the
// range guard's bounds are sign-extended in the preheader) beside a load and
// a store at a masked index (constant range guards), and one block computing
// an address several times over (CSE within the block).
const loopShapesSrc = `module "loops"
global @tbl : [16 x i64]
func @chain(%x: i64, %n: i64) -> i64 {
entry:
  br ^head
head:
  %i = phi i64 [0, ^entry], [%i1, ^body]
  %acc = phi i64 [0, ^entry], [%acc1, ^body]
  %c = icmp slt i64 %i, %n
  condbr %c, ^body, ^exit
body:
  %k1 = add i64 %x, 3
  %k2 = mul i64 %k1, %x
  %k3 = xor i64 %k2, 7
  %k4 = add i64 %k3, %k1
  %acc1 = add i64 %acc, %k4
  %i1 = add i64 %i, 1
  br ^head
exit:
  ret i64 %acc
}
func @nest(%p: ptr, %n: i64, %m: i64) -> void {
entry:
  br ^outer
outer:
  %i = phi i64 [0, ^entry], [%i1, ^olatch]
  %ci = icmp slt i64 %i, %n
  condbr %ci, ^opre, ^exit
opre:
  br ^inner
inner:
  %j = phi i64 [0, ^opre], [%j1, ^ibody]
  %cj = icmp slt i64 %j, %m
  condbr %cj, ^ibody, ^olatch
ibody:
  store i64 %j, %p
  %j1 = add i64 %j, 1
  br ^inner
olatch:
  %i1 = add i64 %i, 1
  br ^outer
exit:
  ret void
}
func @affine(%a: ptr, %s: i32, %n: i32) -> i64 {
entry:
  br ^head
head:
  %i = phi i32 [%s, ^entry], [%i1, ^body]
  %acc = phi i64 [0, ^entry], [%acc1, ^body]
  %c = icmp slt i32 %i, %n
  condbr %c, ^body, ^exit
body:
  %ix = sext i32 %i to i64
  %q = gep i64, %a, %ix
  %v = load i64, %q
  %v1 = add i64 %v, 1
  store i64 %v1, %q
  %h = mul i64 %ix, 7
  %r = and i64 %h, 15
  %t = gep i64, @tbl, %r
  %w = load i64, %t
  store i64 %v, %t
  %acc1 = add i64 %acc, %w
  %i1 = add i32 %i, 1
  br ^head
exit:
  ret i64 %acc
}
func @repeat(%a: ptr, %k: i64) -> i64 {
entry:
  %p1 = gep i64, %a, %k
  %l1 = load i64, %p1
  %p2 = gep i64, %a, %k
  %l2 = load i64, %p2
  %p3 = gep i64, %a, %k
  %l3 = load i64, %p3
  %s1 = add i64 %l1, %l2
  %s2 = add i64 %s1, %l3
  ret i64 %s2
}`

// localsSrc is CARAT-C that declares locals inside a loop body and after a
// branch: cc gives every local a slot at the head of the entry block, in the
// order the declarations are lowered.
const localsSrc = `func main(): int {
    var n = 5;
    var total = 0;
    for (var i = 0; i < n; i = i + 1) {
        var sq = i * i;
        total = total + sq;
    }
    if (total > 10) {
        var big = total - 10;
        total = big;
    }
    var last = total * 2;
    return last;
}`

// counters renders the exported fields of st as %+v would: the counters are
// the oracle, how Stats keeps its books while the passes run is not.
func counters(st passes.Stats) string {
	v := reflect.ValueOf(st)
	var fields []string
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() {
			fields = append(fields, fmt.Sprintf("%s:%v", f.Name, v.Field(i)))
		}
	}
	return "{" + strings.Join(fields, " ") + "}"
}

// pipelineGolden runs every input at every level and renders one line per
// run: name/level, sha256 of the canonical output, the pass statistics.
func pipelineGolden(t *testing.T) string {
	type input struct {
		name  string
		build func() *ir.Module
	}
	var inputs []input
	for _, w := range workload.All() {
		inputs = append(inputs, input{w.Name, func() *ir.Module { return w.Build(workload.ScaleTest) }})
	}
	histogram := sourcelangProgram(t)
	inputs = append(inputs, input{"cc:histogram", func() *ir.Module {
		m, err := cc.Compile("histogram", histogram)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}})
	inputs = append(inputs, input{"ir:shapes", func() *ir.Module { return ir.MustParse(shapesSrc) }})
	inputs = append(inputs, input{"ir:loops", func() *ir.Module { return ir.MustParse(loopShapesSrc) }})
	inputs = append(inputs, input{"cc:locals", func() *ir.Module {
		m, err := cc.Compile("locals", localsSrc)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}})
	var sb strings.Builder
	for _, in := range inputs {
		for _, lvl := range levels {
			m := in.build()
			pm := passes.Build(lvl)
			if err := pm.Run(m); err != nil {
				t.Fatalf("%s at level %d: %v", in.name, lvl, err)
			}
			h := sha256.New()
			if err := m.WriteCanonical(h); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%s/%d  %x  %s\n", in.name, lvl, h.Sum(nil), counters(pm.Stats))
		}
	}
	return sb.String()
}

// TestPipelineGolden compares against testdata/pipeline_golden.txt, recorded
// at the commit before the block-edit primitive replaced the per-instruction
// insert/remove loops (PR 21). The LevelTracking digests of the 22 kernels
// are TestCanonicalGolden's (internal/ir); the other four levels, the
// statistics, and a program that came through the cc front end are pinned
// only here.
func TestPipelineGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/pipeline_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := pipelineGolden(t)
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
			t.Errorf("pipeline output changed:\n got  %s\n want %s", g, w)
		}
	}
}
