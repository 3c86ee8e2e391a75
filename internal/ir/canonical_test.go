package ir_test

// Tests of the canonical encoder (encode.go) against its three contracts:
// the bytes are the wire format signatures cover (golden digests), Parse
// inverts them (round trip, fuzzed), and producing or parsing them costs
// memory linear in the module with a small constant (allocation counts).
// An external test package, because the inputs come from packages that
// import ir.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"carat/internal/cc"
	"carat/internal/ir"
	"carat/internal/passes"
	"carat/internal/workload"
)

// suiteKernel builds one of the 22 kernels at ScaleTest, instrumented at
// LevelTracking when carat is set.
func suiteKernel(t testing.TB, w *workload.Workload, carat bool) *ir.Module {
	m := w.Build(workload.ScaleTest)
	if carat {
		if err := passes.Build(passes.LevelTracking).Run(m); err != nil {
			t.Fatalf("%s: passes: %v", w.Name, err)
		}
	}
	return m
}

// genSource is a CARAT-C program of n functions in five shapes (arithmetic,
// loop, global array, heap block, call) and a main that calls each.
func genSource(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i%5 == 2 {
			fmt.Fprintf(&sb, "global g%d: [16]int;\n", i)
		}
		fmt.Fprintf(&sb, "func f%d(x: int): int {\n", i)
		switch i % 5 {
		case 0:
			fmt.Fprintf(&sb, "    var a = (x * %d + 7) & 65535;\n    return a ^ (a >> 3);\n", 2*i+3)
		case 1:
			fmt.Fprintf(&sb, "    var s = x;\n    for (var i = 0; i < 8; i = i + 1) { s = (s * %d + i) & 65535; }\n    return s;\n", 2*i+3)
		case 2:
			fmt.Fprintf(&sb, "    for (var i = 0; i < 16; i = i + 1) { g%d[i] = x + i; }\n    return g%d[x & 15];\n", i, i)
		case 3:
			sb.WriteString("    var p = malloc(64);\n    p[1] = x;\n    var s = p[1] + 1;\n    free(p);\n    return s;\n")
		case 4:
			fmt.Fprintf(&sb, "    if (x > %d) { return f%d(x - 1); }\n    return x;\n", i, i-4)
		}
		sb.WriteString("}\n")
	}
	sb.WriteString("func main(): int {\n    var acc = 1;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "    acc = (acc ^ f%d(acc)) & 65535;\n", i)
	}
	sb.WriteString("    print_int(acc);\n    return acc;\n}\n")
	return sb.String()
}

func genModule(t testing.TB, n int) *ir.Module {
	m, err := cc.Compile(fmt.Sprintf("gen%d", n), genSource(n))
	if err != nil {
		t.Fatalf("cc.Compile(gen %d): %v", n, err)
	}
	return m
}

// TestCanonicalGolden pins the wire format. testdata/canonical_sha256.txt
// holds the sha256 of each suite kernel's printed form (ScaleTest,
// LevelTracking) as the fmt-based printer this encoder replaced wrote it;
// a signature made over those bytes must still verify.
func TestCanonicalGolden(t *testing.T) {
	f, err := os.Open("testdata/canonical_sha256.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if digest, name, ok := strings.Cut(sc.Text(), "  "); ok {
			want[name] = digest
		}
	}
	all := workload.All()
	if len(want) != len(all) {
		t.Fatalf("golden file lists %d kernels, the suite has %d", len(want), len(all))
	}
	for _, w := range all {
		h := sha256.New()
		if err := suiteKernel(t, w, true).WriteCanonical(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[w.Name] {
			t.Errorf("%s: canonical form changed: sha256 %s, golden %s", w.Name, got, want[w.Name])
		}
	}
}

// checkRoundTrip asserts print ∘ parse ∘ print = print on m, and that the
// streaming and the in-memory encoder agree.
func checkRoundTrip(t *testing.T, m *ir.Module) {
	t.Helper()
	text := m.String()
	var streamed bytes.Buffer
	if err := m.WriteCanonical(&streamed); err != nil {
		t.Fatalf("WriteCanonical: %v", err)
	}
	if streamed.String() != text {
		t.Fatalf("WriteCanonical and String disagree\n--- streamed\n%s\n--- String\n%s", streamed.String(), text)
	}
	m2, err := ir.Parse(text)
	if err != nil {
		t.Fatalf("printed module does not parse: %v\n%s", err, text)
	}
	if again := m2.String(); again != text {
		t.Fatalf("round trip changed the text\n--- printed\n%s\n--- reprinted\n%s", text, again)
	}
}

func TestRoundTripSuiteAndGenerated(t *testing.T) {
	for _, w := range workload.All() {
		checkRoundTrip(t, suiteKernel(t, w, false))
		checkRoundTrip(t, suiteKernel(t, w, true))
	}
	checkRoundTrip(t, genModule(t, 12))
}

// TestRoundTripConstants: every constant the IR can hold has a literal the
// lexer reads back, including the non-null pointers the swap path poisons
// with and the floats that have no decimal form.
func TestRoundTripConstants(t *testing.T) {
	m := ir.NewModule("consts")
	g := m.AddGlobal("g", ir.F64)
	f := m.AddFunc("f", ir.Void)
	b := ir.NewBuilder(f)
	b.Store(&ir.Const{Typ: ir.Ptr, Int: 0x10}, g)
	b.Store(&ir.Const{Typ: ir.Ptr, Int: -4096}, g)
	nanPayload := math.Float64frombits(0x7ff8000000000123)
	for _, v := range []float64{math.NaN(), nanPayload, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e300, 5e-324} {
		b.Store(ir.ConstFloat(v), g)
	}
	b.Ret(nil)
	checkRoundTrip(t, m)

	m2 := ir.MustParse(m.String())
	var ints []int64
	var bits []uint64
	for _, in := range m2.Func("f").Entry().Instrs {
		if in.Op != ir.OpStore {
			continue
		}
		if c := in.Args[0].(*ir.Const); c.Typ.IsPtr() {
			ints = append(ints, c.Int)
		} else {
			bits = append(bits, math.Float64bits(c.Float))
		}
	}
	if len(ints) != 2 || ints[0] != 0x10 || ints[1] != -4096 {
		t.Errorf("pointer constants read back as %v", ints)
	}
	if len(bits) != 7 || bits[1] != math.Float64bits(nanPayload) || bits[3] != math.Float64bits(math.Inf(-1)) {
		t.Errorf("float constants read back as %x", bits)
	}
}

// TestRoundTripModuleName: the name is written with strconv.Quote and must
// be read with its inverse. caratd puts the request's name here.
func TestRoundTripModuleName(t *testing.T) {
	for _, name := range []string{"plain", `say "hi"`, "naïve\n", `back\slash`, "\x00\xff", ""} {
		m := ir.NewModule(name)
		checkRoundTrip(t, m)
		if got := ir.MustParse(m.String()).Name; got != name {
			t.Errorf("module name %q read back as %q", name, got)
		}
	}
	for _, src := range []string{`module "open`, "module \"two\nlines\"", `module "bad \q escape"`} {
		if _, err := ir.Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted a malformed string", src)
		}
	}
}

// TestParseRejectsUnprintable: inputs that used to parse into modules the
// printer could not write back, or that panicked the parser.
func TestParseRejectsUnprintable(t *testing.T) {
	for name, body := range map[string]string{
		"named void call":         "%x = call void @f()\n  ret void",
		"named store":             "%x = store i64 1, null\n  ret void",
		"int literal as array":    "%x = add [2 x i8] 1, 2\n  ret void",
		"negative array":          "%x = alloca [-1 x i8], 1\n  ret void",
		"undefined callee":        "call void @nowhere()\n  ret void",
		"label defined twice":     "br ^a\na:\n  br ^b\na:\n  ret void",
		"undefined label":         "br ^nowhere",
		"operand of other type":   "%f = fadd f64 1.0, 2.0\n  %c = icmp slt i64 %f, 6\n  ret void",
		"forward ref, other type": "%c = icmp slt i64 %f, 6\n  %f = fadd f64 1.0, 2.0\n  ret void",
	} {
		src := "module \"m\"\nfunc @f() -> void {\nentry:\n  " + body + "\n}\n"
		if _, err := ir.Parse(src); err == nil {
			t.Errorf("%s: accepted\n%s", name, src)
		}
	}
	if _, err := ir.Parse("module \"m\"\nfunc @f() -> void\nfunc @f() -> void\n"); err == nil {
		t.Error("duplicate function accepted")
	}
}

// FuzzIRRoundTrip: the parser never panics, and whatever it accepts prints
// to text it accepts again unchanged, the same through both encoder paths.
func FuzzIRRoundTrip(f *testing.F) {
	for _, w := range workload.All() {
		f.Add(suiteKernel(f, w, false).String())
		f.Add(suiteKernel(f, w, true).String())
	}
	f.Add(genModule(f, 5).String())
	f.Add(genModule(f, 12).String())
	f.Add("module \"a\\\"b\"\nglobal @g : {i8, [2 x f64]} = #00ff ptrs [0, 8]\n" +
		"func @f(%p: ptr) -> f64 {\ne:\n  store ptr ptr:0x10, %p\n  %x = fadd f64 f64:0x7ff8000000000001, -0.0\n  ret f64 %x\n}\n")
	f.Add("module \"narrow\"\nfunc @f(%x: i8) -> i64 {\ne:\n  %a = add i8 %x, 255\n  %b = icmp ult i8 %a, 128\n" +
		"  %c = xor i1 %b, -1\n  %d = add i16 65535, -32768\n  %e = add i32 4294967295, -2147483648\n" +
		"  %s = select i1 %c, i32 %e, i32 2147483648\n  %z = zext i32 %s to i64\n  ret i64 %z\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		checkRoundTrip(t, m)
	})
}

// TestParseAllocsScaleLinearly stands in for a big-over-small ratio of
// ir.Parse: allocation counts repeat exactly where timings do not. Per
// instruction, a 240-function module may cost no more than a 60-function
// one, and neither more than four allocations (the fmt printer's era
// parser spent eight: a map literal per sigil token, a boxed lookahead).
func TestParseAllocsScaleLinearly(t *testing.T) {
	perInstr := func(n int) float64 {
		m := genModule(t, n)
		src := m.String()
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ir.Parse(src); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / float64(m.NumInstrs())
	}
	small, big := perInstr(60), perInstr(240)
	t.Logf("allocs per instruction: %.2f at 60 functions, %.2f at 240", small, big)
	if big > 1.1*small {
		t.Errorf("Parse allocations grow faster than the module: %.2f/instr at 240 functions vs %.2f at 60", big, small)
	}
	if big > 4 {
		t.Errorf("Parse allocates %.2f times per instruction, want <= 4", big)
	}
}

// TestWriteCanonicalAllocsConstant: streaming a module costs its one chunk
// buffer, whatever the module's size.
func TestWriteCanonicalAllocsConstant(t *testing.T) {
	for _, n := range []int{60, 240} {
		m := genModule(t, n)
		allocs := testing.AllocsPerRun(5, func() {
			if err := m.WriteCanonical(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("WriteCanonical of %d functions (%d instrs) allocates %.0f times, want <= 2", n, m.NumInstrs(), allocs)
		}
	}
}
