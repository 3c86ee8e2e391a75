package cc

import (
	"os"
	"strings"
	"testing"
	"time"
)

// FuzzCCCompile feeds the front end arbitrary bytes — what a `kind:"cc"`
// request hands caratd. Whatever the text, Compile returns an error or a
// module ir.Verify accepts; it never panics and never fails to return.
//
// The seeds are the program examples/sourcelang compiles, a program in the
// shape benchmark/gen.go emits (testdata/gen14.c: its seven templates twice
// over and a main that calls them), and the corners of the lexer: comments
// that never close, numbers that are not, bytes no token starts with, an
// operator chain past the nesting cap.
func FuzzCCCompile(f *testing.F) {
	example, err := os.ReadFile("../../examples/sourcelang/main.go")
	if err != nil {
		f.Fatal(err)
	}
	_, program, _ := strings.Cut(string(example), "const program = `")
	program, _, ok := strings.Cut(program, "`")
	if !ok {
		f.Fatal("examples/sourcelang/main.go declares no program constant")
	}
	f.Add(program)
	gen, err := os.ReadFile("testdata/gen14.c")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(gen))
	for _, src := range []string{
		"", "func", "/*", "/* *", "//", "1.2.3", "0x", "9999999999999999999999", "@",
		"func main(): int { return 0x7fffffffffffffff + 1.e; }",
		"global g: [0]int; global g: int; func main(): int { return g[1 << 70]; }",
		"func main(): int { var p = malloc(8); p[0] = p; free(p); return ((((1)))); }",
		"func f(x: float, y: ptr): float { return -x * 2.5; } func main(): int { f(1.0, malloc(1)); return !0 && 1 || 2; }",
		"func main(): int { for (;;) { if (1) { return 1; } else { } } }",
		"func main(): int { return " + strings.Repeat("1+", 2000) + "1; }",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// The fuzzing engine waits for a worker for ever; a front end that
		// does not return has to bring the worker down to be seen.
		defer time.AfterFunc(10*time.Second, func() { panic("Compile does not return on:\n" + src) }).Stop()
		m, err := Compile("fuzz", src)
		if err != nil {
			return
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("Compile accepted a program whose module does not verify: %v\n%s", err, src)
		}
	})
}
