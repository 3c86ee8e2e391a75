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
