package ir

import "fmt"

// Integer semantics at a width: the one copy both engines and the constant
// folder compute with. A register holds a bits-wide integer in one encoding
// (Narrow): sign-extended to 64 bits, except that an i1 holds 0 or 1. A
// Const holds it too (ConstInt), so a constant reads as a register does.
// IntBinop reads its operands at their width; ICmpAt expects the register
// encoding.

// SignExtend reads the low bits of v as a signed bits-wide integer.
func SignExtend(v uint64, bits int) int64 {
	if bits >= 64 || bits == 0 {
		return int64(v)
	}
	shift := uint(64 - bits)
	return int64(v<<shift) >> shift
}

// MaskToWidth keeps the low bits of v.
func MaskToWidth(v uint64, bits int) uint64 {
	if bits >= 64 {
		return v
	}
	return v & (1<<uint(bits) - 1)
}

// Narrow is how a register holds a bits-wide integer: sign-extended, except
// that an i1 holds 0 or 1, the encoding icmp and fcmp produce and the
// constant folder assumes. One encoding of true means a truncated, a
// computed and a compared bool compare equal and store the same byte.
func Narrow(v uint64, bits int) uint64 {
	if bits == 1 {
		return v & 1
	}
	return uint64(SignExtend(v, bits))
}

// IntBinop computes a bits-wide integer binop and returns its result in the
// register encoding. Division and remainder by zero are errors; a shift
// amount counts modulo 64, and a signed MIN / -1 wraps.
func IntBinop(op Op, a, b uint64, bits int) (uint64, error) {
	sa, sb := SignExtend(a, bits), SignExtend(b, bits)
	var r int64
	switch op {
	case OpAdd:
		r = sa + sb
	case OpSub:
		r = sa - sb
	case OpMul:
		r = sa * sb
	case OpSDiv:
		if sb == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		r = sa / sb
	case OpSRem:
		if sb == 0 {
			return 0, fmt.Errorf("remainder by zero")
		}
		r = sa % sb
	case OpUDiv:
		if sb == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		r = int64(MaskToWidth(a, bits) / MaskToWidth(b, bits))
	case OpURem:
		if sb == 0 {
			return 0, fmt.Errorf("remainder by zero")
		}
		r = int64(MaskToWidth(a, bits) % MaskToWidth(b, bits))
	case OpAnd:
		r = sa & sb
	case OpOr:
		r = sa | sb
	case OpXor:
		r = sa ^ sb
	case OpShl:
		r = sa << (uint64(sb) & 63)
	case OpLShr:
		r = int64(MaskToWidth(a, bits) >> (uint64(sb) & 63))
	case OpAShr:
		r = sa >> (uint64(sb) & 63)
	default:
		return 0, fmt.Errorf("bad binop %v", op)
	}
	return Narrow(uint64(r), bits), nil
}

// ICmp compares two registers: signed predicates as int64, unsigned ones as
// uint64. ICmpAt reads bits-wide operands for it.
func ICmp(p Pred, a, b uint64) bool {
	switch p {
	case PredEQ:
		return a == b
	case PredNE:
		return a != b
	case PredLT:
		return int64(a) < int64(b)
	case PredLE:
		return int64(a) <= int64(b)
	case PredGT:
		return int64(a) > int64(b)
	case PredGE:
		return int64(a) >= int64(b)
	case PredULT:
		return a < b
	case PredULE:
		return a <= b
	case PredUGT:
		return a > b
	case PredUGE:
		return a >= b
	}
	return false
}

// ICmpAt compares two registers holding bits-wide integers in the register
// encoding. Unsigned predicates compare the width-masked representation:
// the sign extension would corrupt them.
func ICmpAt(p Pred, a, b uint64, bits int) bool {
	if p >= PredULT && bits < 64 {
		a, b = MaskToWidth(a, bits), MaskToWidth(b, bits)
	}
	return ICmp(p, a, b)
}
