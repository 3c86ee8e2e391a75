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
// predicate, and every i8 value's extensions to i64, with each constant
// built from its unsigned spelling 0…255, which ir.ConstInt stores
// sign-extended (so 255 is the constant -1, as the parser reads `i8 255`:
// TestNarrowLiteralSpellingsAreOneConstant in internal/ir), and checks each
// result's low byte against Go's int8/uint8 arithmetic, an oracle that
// shares no code with the folder.
func TestFoldI8MatchesGo(t *testing.T) {
	k := func(v int) ir.Value { return ir.ConstInt(ir.I8, int64(v)) }
	for op := ir.OpAdd; op <= ir.OpAShr; op++ {
		wrong := 0
		for a := 0; a < 256; a++ {
			for b := 0; b < 256; b++ {
				want, ok := goI8(op, uint8(a), uint8(b))
				if !ok {
					continue
				}
				in := &ir.Instr{Op: op, Typ: ir.I8, Args: []ir.Value{k(a), k(b)}}
				if c := foldInstr(in); c == nil || uint8(c.Int) != want {
					wrong++
				}
			}
		}
		if wrong > 0 {
			t.Errorf("%s: %d i8 pairs fold wrong", op, wrong)
		}
	}
	for a := 0; a < 256; a++ {
		sext := &ir.Instr{Op: ir.OpSExt, Typ: ir.I64, Args: []ir.Value{k(a)}}
		zext := &ir.Instr{Op: ir.OpZExt, Typ: ir.I64, Args: []ir.Value{k(a)}}
		if c := foldInstr(sext); c == nil || c.Int != int64(int8(a)) {
			t.Errorf("sext i8 %d to i64 folds to %v", a, c)
		}
		if c := foldInstr(zext); c == nil || c.Int != int64(uint8(a)) {
			t.Errorf("zext i8 %d to i64 folds to %v", a, c)
		}
	}
	for p := ir.PredEQ; p <= ir.PredUGE; p++ {
		wrong := 0
		for a := 0; a < 256; a++ {
			for b := 0; b < 256; b++ {
				in := &ir.Instr{Op: ir.OpICmp, Pred: p, Typ: ir.I1, Args: []ir.Value{k(a), k(b)}}
				if c := foldInstr(in); c == nil || (c.Int == 1) != goCmpI8(p, uint8(a), uint8(b)) {
					wrong++
				}
			}
		}
		if wrong > 0 {
			t.Errorf("icmp %s: %d i8 pairs fold wrong", p, wrong)
		}
	}
}
