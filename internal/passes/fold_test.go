package passes

import (
	"testing"

	"carat/internal/ir"
)

// goI8 is Go's sized arithmetic for op on the i8 values a and b; false for
// the pairs the IR defines differently: division by zero, a shift by 8 or
// more.
func goI8(op ir.Op, a, b uint8) (uint8, bool) {
	sa, sb := int8(a), int8(b)
	if (op == ir.OpSDiv || op == ir.OpSRem || op == ir.OpUDiv || op == ir.OpURem) && b == 0 ||
		(op == ir.OpShl || op == ir.OpLShr || op == ir.OpAShr) && b >= 8 {
		return 0, false
	}
	switch op {
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpSDiv:
		return uint8(sa / sb), true
	case ir.OpSRem:
		return uint8(sa % sb), true
	case ir.OpUDiv:
		return a / b, true
	case ir.OpURem:
		return a % b, true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpShl:
		return a << b, true
	case ir.OpLShr:
		return a >> b, true
	default: // ir.OpAShr
		return uint8(sa >> b), true
	}
}

// goCmpI8 is Go's answer to an i8 compare: signed predicates on int8,
// unsigned ones on uint8.
func goCmpI8(p ir.Pred, a, b uint8) bool {
	sa, sb := int8(a), int8(b)
	return [...]bool{
		ir.PredEQ: a == b, ir.PredNE: a != b,
		ir.PredLT: sa < sb, ir.PredLE: sa <= sb, ir.PredGT: sa > sb, ir.PredGE: sa >= sb,
		ir.PredULT: a < b, ir.PredULE: a <= b, ir.PredUGT: a > b, ir.PredUGE: a >= b,
	}[p]
}

// TestFoldI8MatchesGo folds every i8 pair of every integer binop and
// predicate, and every i8 value's extensions to i64, with the constants stored either way the IR stores a narrow
// value — sign-extended, as ir.ConstInt(ir.I8, -1) holds it, and
// zero-extended, as the parser holds `i8 255` — and checks each result's
// low byte against Go's int8/uint8 arithmetic, an oracle that shares no
// code with the folder.
func TestFoldI8MatchesGo(t *testing.T) {
	x, y := &ir.Const{Typ: ir.I8}, &ir.Const{Typ: ir.I8} // not ConstInt's shared instances: the test rewrites them
	for _, enc := range []struct {
		name  string
		store func(uint8) int64
	}{
		{"sign-extended", func(v uint8) int64 { return int64(int8(v)) }},
		{"zero-extended", func(v uint8) int64 { return int64(v) }},
	} {
		for op := ir.OpAdd; op <= ir.OpAShr; op++ {
			in := &ir.Instr{Op: op, Typ: ir.I8, Args: []ir.Value{x, y}}
			wrong := 0
			for a := 0; a < 256; a++ {
				for b := 0; b < 256; b++ {
					want, ok := goI8(op, uint8(a), uint8(b))
					if !ok {
						continue
					}
					x.Int, y.Int = enc.store(uint8(a)), enc.store(uint8(b))
					if c := foldInstr(in); c == nil || uint8(c.Int) != want {
						wrong++
					}
				}
			}
			if wrong > 0 {
				t.Errorf("%s %s: %d i8 pairs fold wrong", enc.name, op, wrong)
			}
		}
		sext := &ir.Instr{Op: ir.OpSExt, Typ: ir.I64, Args: []ir.Value{x}}
		zext := &ir.Instr{Op: ir.OpZExt, Typ: ir.I64, Args: []ir.Value{x}}
		for a := 0; a < 256; a++ {
			x.Int = enc.store(uint8(a))
			if c := foldInstr(sext); c == nil || c.Int != int64(int8(a)) {
				t.Errorf("%s sext i8 %d to i64 folds to %v", enc.name, x.Int, c)
			}
			if c := foldInstr(zext); c == nil || c.Int != int64(uint8(a)) {
				t.Errorf("%s zext i8 %d to i64 folds to %v", enc.name, x.Int, c)
			}
		}
		for p := ir.PredEQ; p <= ir.PredUGE; p++ {
			in := &ir.Instr{Op: ir.OpICmp, Pred: p, Typ: ir.I1, Args: []ir.Value{x, y}}
			wrong := 0
			for a := 0; a < 256; a++ {
				for b := 0; b < 256; b++ {
					x.Int, y.Int = enc.store(uint8(a)), enc.store(uint8(b))
					if c := foldInstr(in); c == nil || (c.Int == 1) != goCmpI8(p, uint8(a), uint8(b)) {
						wrong++
					}
				}
			}
			if wrong > 0 {
				t.Errorf("%s icmp %s: %d i8 pairs fold wrong", enc.name, p, wrong)
			}
		}
	}
}
