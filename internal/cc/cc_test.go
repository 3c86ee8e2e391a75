package cc

import (
	"strings"
	"sync"
	"testing"

	"carat/internal/core"
	"carat/internal/ir"
	"carat/internal/passes"
	"carat/internal/vm"
)

// runCC compiles CARAT-C source through the full pipeline and executes it.
func runCC(t *testing.T, src string, lvl passes.Level) (*vm.VM, int64) {
	t.Helper()
	m, err := Compile("test", src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	cfg := vm.DefaultConfig()
	cfg.MemBytes = 1 << 23
	cfg.HeapBytes = 1 << 19
	v, ret, err := core.CompileAndRun(m, lvl, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v, ret
}

// lex drains a lexer: every token of src, ending in tEOF.
func lex(src string) ([]token, error) {
	l := lexer{src: src, line: 1}
	var toks []token
	for {
		toks = append(toks, l.scan())
		if toks[len(toks)-1].kind == tEOF {
			return toks, l.err
		}
	}
}

func TestLexBasics(t *testing.T) {
	toks, err := lex(`func f(x: int): int { return x << 2; } // comment`)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.text)
	}
	joined := strings.Join(texts, " ")
	for _, want := range []string{"func", "f", "(", "x", ":", "int", "<<", "2"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing token %q in %q", want, joined)
		}
	}
	if _, err := lex("@"); err == nil {
		t.Error("bad character accepted")
	}
}

func TestLexComments(t *testing.T) {
	toks, err := lex("1 /* multi\nline */ 2 // eol\n3")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 { // 1 2 3 EOF
		t.Errorf("tokens = %d, want 4", len(toks))
	}
	if toks[2].line != 3 {
		t.Errorf("line tracking wrong: %d", toks[2].line)
	}
}

func TestSimpleReturn(t *testing.T) {
	_, ret := runCC(t, `func main(): int { return 6*7; }`, passes.LevelNone)
	if ret != 42 {
		t.Errorf("ret = %d", ret)
	}
}

func TestArithmeticAndPrecedence(t *testing.T) {
	_, ret := runCC(t, `
func main(): int {
    return 2 + 3 * 4 - 10 / 2 + (1 << 4) % 7;
}`, passes.LevelNone)
	// 2 + 12 - 5 + 16%7=2 => 11 + 2 = wait: 2+12=14, -5=9, +2=11.
	if ret != 11 {
		t.Errorf("ret = %d, want 11", ret)
	}
}

func TestVariablesAndLoops(t *testing.T) {
	_, ret := runCC(t, `
func main(): int {
    var acc = 0;
    for (var i = 0; i < 10; i = i + 1) {
        acc = acc + i;
    }
    var j = 0;
    while (j < 5) {
        acc = acc + 100;
        j = j + 1;
    }
    return acc;
}`, passes.LevelTracking)
	if ret != 45+500 {
		t.Errorf("ret = %d, want 545", ret)
	}
}

func TestIfElseChains(t *testing.T) {
	src := `
func classify(x: int): int {
    if (x < 0) {
        return 0 - 1;
    } else if (x == 0) {
        return 0;
    } else {
        return 1;
    }
}
func main(): int {
    return classify(0-5)*100 + classify(0)*10 + classify(7);
}`
	_, ret := runCC(t, src, passes.LevelGuardsOpt)
	if ret != -100+0+1 {
		t.Errorf("ret = %d, want -99", ret)
	}
}

func TestGlobalsAndArrays(t *testing.T) {
	src := `
global table: [64]int;
global total: int;

func main(): int {
    for (var i = 0; i < 64; i = i + 1) {
        table[i] = i * i;
    }
    total = 0;
    for (var i = 0; i < 64; i = i + 1) {
        total = total + table[i];
    }
    return total;
}`
	_, ret := runCC(t, src, passes.LevelTracking)
	want := int64(0)
	for i := int64(0); i < 64; i++ {
		want += i * i
	}
	if ret != want {
		t.Errorf("ret = %d, want %d", ret, want)
	}
}

func TestHeapAndBuiltins(t *testing.T) {
	src := `
func main(): int {
    var p = malloc(800);
    for (var i = 0; i < 100; i = i + 1) {
        p[i] = i * 3;
    }
    var s = 0;
    for (var i = 0; i < 100; i = i + 1) {
        s = s + p[i];
    }
    print_int(s);
    free(p);
    return s;
}`
	v, ret := runCC(t, src, passes.LevelTracking)
	if ret != 99*100/2*3 {
		t.Errorf("ret = %d", ret)
	}
	if len(v.Output) != 1 || v.Output[0] != ret {
		t.Errorf("print output = %v", v.Output)
	}
	if v.Runtime().Stats.Frees.Get() != 1 {
		t.Error("free not tracked")
	}
}

func TestFloats(t *testing.T) {
	src := `
global fs: [8]float;
func main(): int {
    fs[0] = 1.5;
    fs[1] = 2.25;
    var x = fs[0] * 4.0 + fs[1];
    if (x > 8.0) {
        return 1;
    }
    return 0;
}`
	_, ret := runCC(t, src, passes.LevelGuardsOpt)
	if ret != 1 { // 6 + 2.25 = 8.25 > 8
		t.Errorf("ret = %d, want 1", ret)
	}
}

func TestShortCircuit(t *testing.T) {
	src := `
global hits: int;
func bump(): int {
    hits = hits + 1;
    return 1;
}
func main(): int {
    hits = 0;
    if (0 != 0 && bump() != 0) { }
    if (1 == 1 || bump() != 0) { }
    return hits;
}`
	_, ret := runCC(t, src, passes.LevelNone)
	if ret != 0 {
		t.Errorf("short-circuit evaluated RHS: hits = %d", ret)
	}
}

func TestRecursionCC(t *testing.T) {
	src := `
func fib(n: int): int {
    if (n < 2) { return n; }
    return fib(n-1) + fib(n-2);
}
func main(): int { return fib(12); }`
	_, ret := runCC(t, src, passes.LevelGuardsOpt)
	if ret != 144 {
		t.Errorf("fib(12) = %d, want 144", ret)
	}
}

func TestVarInLoopDoesNotLeakStack(t *testing.T) {
	// `var` inside a loop body must not grow the frame per iteration.
	src := `
func main(): int {
    var acc = 0;
    for (var i = 0; i < 100000; i = i + 1) {
        var tmp = i & 7;
        acc = acc + tmp;
    }
    return acc & 1023;
}`
	m, err := Compile("test", src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	cfg.MemBytes = 1 << 23
	cfg.HeapBytes = 1 << 18
	cfg.StackBytes = 1 << 14 // tiny: would overflow if vars leaked
	v, err := vm.Load(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestTypeErrors(t *testing.T) {
	bad := []string{
		`func main(): int { return 1.5; }`,                        // float to int return
		`func main(): int { var x = 1; x = 2.0; return x; }`,      // mixed assign
		`func main(): int { return nosuch(); }`,                   // undefined fn
		`func main(): int { return y; }`,                          // undefined var
		`global g: [4]int; func main(): int { g = 1; return 0; }`, // assign to array
		`func main(): int { return 1 + 2.0; }`,                    // mixed operands
		`func f(): int { return 0; }`,                             // no main
		`func main(): int { malloc(1, 2); return 0; }`,            // arity
	}
	for _, src := range bad {
		if _, err := Compile("bad", src); err == nil {
			t.Errorf("accepted invalid program: %s", src)
		}
	}
}

func TestParseErrorsCC(t *testing.T) {
	deep := strings.Repeat("(", 100_000)
	bad := []string{
		`func`, `global x`, `func main() { return`, `func main(): int { if x { } }`,
		`func main(): int { var = 3; }`,
		`func main(): int { return ` + deep + `1; }`, // nesting is bounded
		`func main(): int { ` + strings.ReplaceAll(deep, "(", "{"),
		`func main(): int { return ` + strings.ReplaceAll(deep, "(", "-") + `1; }`,
		`func main(): int { return ` + strings.ReplaceAll(deep, "(", "1+") + `1; }`, // left-deep, no recursion in the parser
	}
	for _, src := range bad {
		if _, err := Compile("bad", src); err == nil {
			t.Errorf("accepted malformed program: %.60s", src)
		}
	}
}

// The parser pulls tokens as it goes, so what Parse reports is the first
// error in source order, whichever layer found it.
func TestFirstErrorInSourceOrder(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"func main(): int {\n return 1 +; }\n@", `line 2: unexpected token ";"`},
		{"func main(): int {\n return 1 @ 2; }\nfunc", `line 2: unexpected character '@'`},
		{"func main(): int { return 0; }\n\n$", `line 3: unexpected character '$'`},
		// A token the parser consumed and then rejects comes before the bad
		// character behind it.
		{"global g: [0\n@]int;", `line 1: bad array length`},
		{"func main(): int { return 99999999999999999999\n@; }", `line 1: bad integer`},
		{"func f(a: [2]int\n@) {}", `line 1: array parameters`},
		{"func main(): int { 1 =\n@ 2; }", `line 1: invalid assignment target`},
	} {
		if _, err := Parse(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestCCThroughFullCARAT(t *testing.T) {
	// A CARAT-C program must behave identically across pipeline levels.
	src := `
global data: [128]int;
func main(): int {
    for (var i = 0; i < 128; i = i + 1) {
        data[i] = i * 7 & 255;
    }
    var sum = 0;
    for (var i = 0; i < 128; i = i + 1) {
        sum = sum + data[i & 127];
    }
    return sum;
}`
	_, base := runCC(t, src, passes.LevelNone)
	vFull, full := runCC(t, src, passes.LevelTracking)
	if base != full {
		t.Errorf("baseline %d != CARAT %d", base, full)
	}
	if vFull.GuardChecks == 0 {
		t.Error("no guards ran")
	}
	_ = ir.Module{}
}

const slotsSrc = `
func add(a: int, b: int): int {
    var s = a + b;
    return s;
}
func main(): int {
    var acc = 0;
    for (var i = 0; i < 4; i = i + 1) {
        var t = add(acc, i);
        acc = t;
    }
    return acc;
}`

// TestCompileIsAFunctionOfItsSource pins that value names (the stack-slot
// numbering) do not depend on what the process compiled before: the printed
// module, which signing digests, must repeat byte for byte.
func TestCompileIsAFunctionOfItsSource(t *testing.T) {
	first, err := Compile("m", slotsSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile("other", "func main(): int { var x = 1; var y = 2; return x + y; }"); err != nil {
		t.Fatal(err)
	}
	second, err := Compile("m", slotsSrc)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := first.String(), second.String(); a != b {
		t.Errorf("same source compiled twice printed differently:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(first.String(), "%slot1 ") {
		t.Errorf("slot numbering does not start at 1:\n%s", first.String())
	}
}

// TestCompileConcurrently compiles from 8 goroutines at once, as caratd's
// compile workers do; under -race it fails on any lowering state shared
// between compiles.
func TestCompileConcurrently(t *testing.T) {
	want, err := Compile("m", slotsSrc)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				m, err := Compile("m", slotsSrc)
				if err != nil {
					t.Error(err)
					return
				}
				if m.String() != want.String() {
					t.Error("concurrent compile printed a different module")
					return
				}
			}
		}()
	}
	wg.Wait()
}
