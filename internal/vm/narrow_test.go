package vm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"carat/internal/ir"
	"carat/internal/passes"
)

// Narrow integers: every integer binop, predicate and cast at i1, i8, i16
// and i32, checked against Go's sized integers on the folder and on both
// engines.

// goBinop is Go's sized arithmetic: op on the bits-wide integers whose bit
// patterns a and b hold, read as int8/uint8, int16/uint16 or int32/uint32
// (an i1 as a bool), returned as the result's pattern; false for the pairs
// the IR defines differently: division by zero, a shift by the width or
// more. It shares no code with ir/eval.go.
func goBinop(op ir.Op, a, b uint64, bits int) (uint64, bool) {
	switch bits {
	case 1:
		return goBinopI1(op, a == 1, b == 1)
	case 8:
		return goSized[int8](op, uint8(a), uint8(b), bits)
	case 16:
		return goSized[int16](op, uint16(a), uint16(b), bits)
	}
	return goSized[int32](op, uint32(a), uint32(b), bits)
}

func goSized[S int8 | int16 | int32, U uint8 | uint16 | uint32](op ir.Op, a, b U, bits int) (uint64, bool) {
	sa, sb := S(a), S(b)
	if (op == ir.OpSDiv || op == ir.OpSRem || op == ir.OpUDiv || op == ir.OpURem) && b == 0 ||
		(op == ir.OpShl || op == ir.OpLShr || op == ir.OpAShr) && uint64(b) >= uint64(bits) {
		return 0, false
	}
	var r U
	switch op {
	case ir.OpAdd:
		r = a + b
	case ir.OpSub:
		r = a - b
	case ir.OpMul:
		r = a * b
	case ir.OpSDiv:
		r = U(sa / sb)
	case ir.OpSRem:
		r = U(sa % sb)
	case ir.OpUDiv:
		r = a / b
	case ir.OpURem:
		r = a % b
	case ir.OpAnd:
		r = a & b
	case ir.OpOr:
		r = a | b
	case ir.OpXor:
		r = a ^ b
	case ir.OpShl:
		r = a << b
	case ir.OpLShr:
		r = a >> b
	default: // ir.OpAShr
		r = U(sa >> b)
	}
	return uint64(r), true
}

// goBinopI1 is one-bit arithmetic: an i1 is 0 or 1 unsigned and 0 or -1
// signed, and a result wraps modulo 2.
func goBinopI1(op ir.Op, a, b bool) (uint64, bool) {
	var r bool
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpXor:
		r = a != b
	case ir.OpMul, ir.OpAnd:
		r = a && b
	case ir.OpOr:
		r = a || b
	case ir.OpSDiv, ir.OpUDiv, ir.OpSRem, ir.OpURem:
		if !b {
			return 0, false
		}
		// x / 1 is x, and -1 / -1 is 1, which wraps to -1: the quotient is
		// a and the remainder 0, read either way.
		r = a && (op == ir.OpSDiv || op == ir.OpUDiv)
	default: // a shift: only by 0 is below the width
		if b {
			return 0, false
		}
		r = a
	}
	return map[bool]uint64{true: 1}[r], true
}

// goCmp is Go's answer to a bits-wide compare: signed predicates on the
// signed sized type, unsigned ones on the unsigned.
func goCmp(p ir.Pred, a, b uint64, bits int) bool {
	switch bits {
	case 1: // true is 1 unsigned, -1 signed
		return cmpTable[int, uint64](p, -int(a&1), -int(b&1), a&1, b&1)
	case 8:
		return cmpTable(p, int8(a), int8(b), uint8(a), uint8(b))
	case 16:
		return cmpTable(p, int16(a), int16(b), uint16(a), uint16(b))
	}
	return cmpTable(p, int32(a), int32(b), uint32(a), uint32(b))
}

func cmpTable[S int | int8 | int16 | int32, U uint8 | uint16 | uint32 | uint64](p ir.Pred, sa, sb S, a, b U) bool {
	return [...]bool{
		ir.PredEQ: a == b, ir.PredNE: a != b,
		ir.PredLT: sa < sb, ir.PredLE: sa <= sb, ir.PredGT: sa > sb, ir.PredGE: sa >= sb,
		ir.PredULT: a < b, ir.PredULE: a <= b, ir.PredUGT: a > b, ir.PredUGE: a >= b,
	}[p]
}

// goSigned reads a bits-wide pattern as Go's signed sized type does (an i1
// true as -1); goLow keeps a value's low bits through the unsigned one.
func goSigned(a uint64, bits int) int64 {
	switch bits {
	case 1:
		return -int64(a & 1)
	case 8:
		return int64(int8(a))
	case 16:
		return int64(int16(a))
	case 32:
		return int64(int32(a))
	}
	return int64(a)
}

func goLow(v uint64, bits int) uint64 {
	switch bits {
	case 1:
		return v & 1
	case 8:
		return uint64(uint8(v))
	case 16:
		return uint64(uint16(v))
	case 32:
		return uint64(uint32(v))
	}
	return v
}

// intCase is one row of the table: op (and pred) on operands of width from
// giving a result of width to. a and b are bit patterns; f is fptosi's
// operand; want is the result's pattern, zero-extended.
type intCase struct {
	op       ir.Op
	pred     ir.Pred
	from, to int
	a, b     uint64
	f        float64
	want     uint64
}

// opName is the case's op, with its predicate for a compare.
func (c intCase) opName() string {
	if c.op == ir.OpICmp {
		return "icmp_" + c.pred.String()
	}
	return c.op.String()
}

// sig names the function that computes the case's op on its parameters.
func (c intCase) sig() string { return fmt.Sprintf("%s_%d_%d", c.opName(), c.from, c.to) }

// params is the parameter list of the case's function.
func (c intCase) params() string {
	if c.op == ir.OpFPToSI {
		return "%a: f64"
	}
	if c.op.IsBinary() || c.op == ir.OpICmp {
		return fmt.Sprintf("%%a: i%d, %%b: i%d", c.from, c.from)
	}
	return fmt.Sprintf("%%a: i%d", c.from)
}

// operands spells the case's operands as literals: an integer by its
// unsigned value or, when signed is set, its signed one (the parser must
// take both to one constant); an i64 always signed.
func (c intCase) operands(signed bool) (a, b string) {
	if c.op == ir.OpFPToSI {
		return ir.ConstFloat(c.f).Ref(), ""
	}
	spell := func(v uint64) string {
		if signed || c.from == 64 {
			return fmt.Sprint(goSigned(v, c.from))
		}
		return fmt.Sprint(v)
	}
	return spell(c.a), spell(c.b)
}

// args is the case's operands as a call's typed arguments.
func (c intCase) args(signed bool) string {
	a, b := c.operands(signed)
	switch {
	case c.op == ir.OpFPToSI:
		return "f64 " + a
	case c.op.IsBinary() || c.op == ir.OpICmp:
		return fmt.Sprintf("i%d %s, i%d %s", c.from, a, c.from, b)
	}
	return fmt.Sprintf("i%d %s", c.from, a)
}

// emit writes the instructions that compute the case from the operand
// references a and b into a value named r, and returns the name of its
// zero extension to i64.
func (c intCase) emit(w *strings.Builder, r, a, b string) string {
	switch {
	case c.op.IsBinary():
		fmt.Fprintf(w, "  %s = %s i%d %s, %s\n", r, c.op, c.from, a, b)
	case c.op == ir.OpICmp:
		fmt.Fprintf(w, "  %s = icmp %s i%d %s, %s\n", r, c.pred, c.from, a, b)
	case c.op == ir.OpSIToFP: // back to i64 to be printed: exact below 2^53
		fmt.Fprintf(w, "  %sf = sitofp i%d %s to f64\n  %s = fptosi f64 %sf to i64\n", r, c.from, a, r, r)
	case c.op == ir.OpFPToSI:
		fmt.Fprintf(w, "  %s = fptosi f64 %s to i%d\n", r, a, c.to)
	default:
		fmt.Fprintf(w, "  %s = %s i%d %s to i%d\n", r, c.op, c.from, a, c.to)
	}
	if c.to == 64 {
		return r
	}
	fmt.Fprintf(w, "  %sw = zext i%d %s to i64\n", r, c.to, r)
	return r + "w"
}

// narrowCases is the table: every i1 pair exhaustively and a seeded sample
// of i8, i16 and i32 pairs (each width's edges against each other, then
// random pairs, half of them with a shift amount below the width) for
// every binop and predicate; every cast between two of i1 … i64 on each
// source width's edges and a random sample; sitofp from each narrow width
// and fptosi to it.
func narrowCases() []intCase {
	rng := rand.New(rand.NewSource(48))
	edges := func(bits int) []uint64 {
		if bits == 1 {
			return []uint64{0, 1}
		}
		low := func(v uint64) uint64 { return goLow(v, bits) }
		return []uint64{0, 1, 2, uint64(bits - 1), uint64(bits), low(^uint64(0) >> 1), low(1 << (bits - 1)), low(^uint64(0))}
	}
	sample := func(bits int) uint64 { return goLow(rng.Uint64(), bits) }
	var cs []intCase
	for _, bits := range []int{1, 8, 16, 32} {
		var pairs [][2]uint64
		for _, a := range edges(bits) {
			for _, b := range edges(bits) {
				pairs = append(pairs, [2]uint64{a, b})
			}
		}
		for i := 0; bits > 1 && i < 48; i++ {
			b := sample(bits)
			if i%2 == 1 {
				b %= uint64(bits)
			}
			pairs = append(pairs, [2]uint64{sample(bits), b})
		}
		for _, p := range pairs {
			for op := ir.OpAdd; op <= ir.OpAShr; op++ {
				if want, ok := goBinop(op, p[0], p[1], bits); ok {
					cs = append(cs, intCase{op: op, from: bits, to: bits, a: p[0], b: p[1], want: want})
				}
			}
			for pr := ir.PredEQ; pr <= ir.PredUGE; pr++ {
				want := map[bool]uint64{true: 1}[goCmp(pr, p[0], p[1], bits)]
				cs = append(cs, intCase{op: ir.OpICmp, pred: pr, from: bits, to: 1, a: p[0], b: p[1], want: want})
			}
		}
	}
	widths := []int{1, 8, 16, 32, 64}
	for _, from := range widths {
		vals := edges(from)
		for i := 0; from > 1 && i < 8; i++ {
			vals = append(vals, sample(from))
		}
		for _, a := range vals {
			for _, to := range widths {
				switch {
				case to < from:
					cs = append(cs, intCase{op: ir.OpTrunc, from: from, to: to, a: a, want: goLow(a, to)})
				case to > from:
					cs = append(cs, intCase{op: ir.OpZExt, from: from, to: to, a: a, want: goLow(a, to)},
						intCase{op: ir.OpSExt, from: from, to: to, a: a, want: goLow(uint64(goSigned(a, from)), to)})
				}
			}
			if from < 64 {
				cs = append(cs, intCase{op: ir.OpSIToFP, from: from, to: 64, a: a, want: uint64(int64(float64(goSigned(a, from))))})
			}
		}
	}
	floats := []float64{0, -0.5, 0.5, 1.9, -1.9, 127.5, 128.5, -128.5, -129.5, 255.5, 256.5, 32767.5, 65535.5, 2147483647.5, -2147483648.5, 4294967296.5}
	for i := 0; i < 8; i++ {
		floats = append(floats, (rng.Float64()-0.5)*(1<<41))
	}
	for _, to := range widths[:4] {
		for _, f := range floats {
			cs = append(cs, intCase{op: ir.OpFPToSI, from: 64, to: to, f: f, want: goLow(uint64(int64(f)), to)})
		}
	}
	return cs
}

// TestNarrowIntegersMatchGo runs the table two ways on both engines: folded
// (every case's operands are literals, which ConstFold must fold to a
// constant) and computed (a call passes the literals to a function that
// computes on its parameters). Each result must be Go's.
func TestNarrowIntegersMatchGo(t *testing.T) {
	cases := narrowCases()
	var src strings.Builder
	src.WriteString("module \"narrow\"\nfunc @print_i64(%x: i64) -> void\n")
	defined := map[string]bool{}
	for _, c := range cases {
		if s := c.sig(); !defined[s] {
			defined[s] = true
			fmt.Fprintf(&src, "func @%s(%s) -> i64 {\ne:\n", s, c.params())
			fmt.Fprintf(&src, "  ret i64 %s\n}\n", c.emit(&src, "%r", "%a", "%b"))
		}
	}
	src.WriteString("func @main() -> i64 {\ne:\n")
	for k, c := range cases {
		a, b := c.operands(k%2 == 1)
		fmt.Fprintf(&src, "  call void @print_i64(i64 %s)\n", c.emit(&src, fmt.Sprintf("%%f%d", k), a, b))
		fmt.Fprintf(&src, "  %%c%d = call i64 @%s(%s)\n  call void @print_i64(i64 %%c%d)\n", k, c.sig(), c.args(k%2 == 1), k)
	}
	src.WriteString("  ret i64 0\n}\n")

	m := compile(t, src.String(), passes.LevelNone)
	for _, b := range m.Func("main").Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpCall && in.Op != ir.OpRet {
				t.Fatalf("ConstFold left %s in @main", in)
			}
		}
	}
	cfg := DefaultConfig()
	cfg.MemBytes, cfg.HeapBytes = 1<<22, 1<<18
	for _, engine := range []bool{reference, compiled} {
		cfg.Closure = engine
		v, _ := run(t, m, cfg)
		if len(v.Output) != 2*len(cases) {
			t.Fatalf("compiled=%v: %d outputs for %d cases", engine, len(v.Output), len(cases))
		}
		wrong := 0
		for k, c := range cases {
			for i, how := range []string{"folded", "computed"} {
				if got := uint64(v.Output[2*k+i]); got != c.want {
					if wrong++; wrong <= 20 {
						t.Errorf("compiled=%v: %s %s %s (to i%d): %#x, Go says %#x",
							engine, how, c.opName(), c.args(k%2 == 1), c.to, got, c.want)
					}
				}
			}
		}
		if wrong > 0 {
			t.Errorf("compiled=%v: %d of %d results differ from Go", engine, wrong, 2*len(cases))
		}
	}
}
