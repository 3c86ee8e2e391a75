package analysis

import "carat/internal/ir"

// SCEV implements a restricted scalar-evolution analysis: it recognizes
// affine induction variables (iv = {start, +, step} over a loop) and linear
// expressions over them, which is what Optimization 2 (guard range merging)
// needs to compute the byte range a loop's accesses cover (§4.1.1).
type SCEV struct {
	Loop *Loop
	Inv  *Invariance
	cfg  *CFG
}

// NewSCEV prepares scalar-evolution queries for l.
func NewSCEV(c *CFG, l *Loop, inv *Invariance) *SCEV {
	return &SCEV{Loop: l, Inv: inv, cfg: c}
}

// IndVar describes a recognized affine induction variable:
// on iteration k the phi holds Start + k*Step.
type IndVar struct {
	Phi   *ir.Instr
	Start ir.Value // loop-invariant initial value
	Step  int64    // constant per-iteration increment (may be negative)
}

// IndVarOf recognizes phi as an affine induction variable of the loop:
// a header phi whose in-loop incoming value is phi+const and whose
// out-of-loop incoming value is loop-invariant.
func (s *SCEV) IndVarOf(phi *ir.Instr) (*IndVar, bool) {
	if phi.Op != ir.OpPhi || phi.Block != s.Loop.Header || !phi.Typ.IsInt() {
		return nil, false
	}
	var start ir.Value
	var step int64
	haveStep := false
	for i, incoming := range phi.Args {
		fromLoop := s.Loop.Contains(phi.Preds[i])
		if !fromLoop {
			if start != nil || !s.Inv.Invariant(incoming) {
				return nil, false
			}
			start = incoming
			continue
		}
		in, ok := incoming.(*ir.Instr)
		if !ok || (in.Op != ir.OpAdd && in.Op != ir.OpSub) {
			return nil, false
		}
		c, okC := in.Args[1].(*ir.Const)
		if !okC || in.Args[0] != ir.Value(phi) {
			return nil, false
		}
		st := c.Int
		if in.Op == ir.OpSub {
			st = -st
		}
		if haveStep && st != step {
			return nil, false
		}
		step, haveStep = st, true
	}
	if start == nil || !haveStep {
		return nil, false
	}
	return &IndVar{Phi: phi, Start: start, Step: step}, true
}

// Linear is a linear function K*iv + C of an induction variable.
type Linear struct {
	IV *IndVar
	K  int64
	C  int64
}

// LinearOf expresses v as K*iv + C over a recognized induction variable of
// the loop, when possible. Loop-invariant values are not Linear (they are
// handled separately by callers).
func (s *SCEV) LinearOf(v ir.Value) (*Linear, bool) {
	switch x := v.(type) {
	case *ir.Instr:
		if x.Op == ir.OpPhi {
			if iv, ok := s.IndVarOf(x); ok {
				return &Linear{IV: iv, K: 1, C: 0}, true
			}
			return nil, false
		}
		// Narrow arithmetic wraps at its width; sext is exact.
		if !s.Loop.ContainsInstr(x) || x.Typ.Bits < 64 && x.Op != ir.OpSExt {
			return nil, false
		}
		switch x.Op {
		case ir.OpAdd, ir.OpSub:
			l, okL := s.LinearOf(x.Args[0])
			c, okC := x.Args[1].(*ir.Const)
			if okL && okC {
				if x.Op == ir.OpAdd {
					return &Linear{IV: l.IV, K: l.K, C: l.C + c.Int}, true
				}
				return &Linear{IV: l.IV, K: l.K, C: l.C - c.Int}, true
			}
			if x.Op == ir.OpAdd {
				// const + linear
				if c2, ok := x.Args[0].(*ir.Const); ok {
					if l2, ok2 := s.LinearOf(x.Args[1]); ok2 {
						return &Linear{IV: l2.IV, K: l2.K, C: l2.C + c2.Int}, true
					}
				}
			}
			return nil, false
		case ir.OpMul:
			if l, ok := s.LinearOf(x.Args[0]); ok {
				if c, okC := x.Args[1].(*ir.Const); okC {
					return &Linear{IV: l.IV, K: l.K * c.Int, C: l.C * c.Int}, true
				}
			}
			if c, okC := x.Args[0].(*ir.Const); okC {
				if l, ok := s.LinearOf(x.Args[1]); ok {
					return &Linear{IV: l.IV, K: l.K * c.Int, C: l.C * c.Int}, true
				}
			}
			return nil, false
		case ir.OpShl:
			if l, ok := s.LinearOf(x.Args[0]); ok {
				if c, okC := x.Args[1].(*ir.Const); okC && c.Int >= 0 && c.Int < 63 {
					m := int64(1) << uint(c.Int)
					return &Linear{IV: l.IV, K: l.K * m, C: l.C * m}, true
				}
			}
			return nil, false
		case ir.OpSExt: // not zext, which reads a negative IV as large
			return s.LinearOf(x.Args[0])
		}
	}
	return nil, false
}

// TripBound describes the loop's controlling bound: the test compared
// iv+CmpOff against Bound, continuing while < (or <= when Inclusive).
// Combined with whether a guarded block runs before or after this test in
// the iteration, callers derive the maximum induction value a guarded
// access can see (see LastIVAdjust).
type TripBound struct {
	IV        *IndVar
	Bound     ir.Value // loop-invariant
	CmpOff    int64    // the compared value is iv + CmpOff
	Inclusive bool
}

// TripBoundOf recognizes the loop exit test in the header: condbr
// (icmp slt/sle X, bound), inLoop, exit — where X is the induction
// variable or iv+const (the rotated/do-while form that compares the
// incremented value), and bound is loop-invariant with a positive step.
func (s *SCEV) TripBoundOf() (*TripBound, bool) {
	term := s.Loop.Header.Term()
	if term == nil || term.Op != ir.OpCondBr {
		return nil, false
	}
	if !s.Loop.Contains(term.Succs[0]) || s.Loop.Contains(term.Succs[1]) {
		return nil, false // need taken=stay, not-taken=exit
	}
	cmp, ok := term.Args[0].(*ir.Instr)
	if !ok || cmp.Op != ir.OpICmp {
		return nil, false
	}
	// Signed tests only: a range guard widens start and bound signed.
	if cmp.Pred != ir.PredLT && cmp.Pred != ir.PredLE {
		return nil, false
	}
	var iv *IndVar
	var cmpOff int64
	if phi, isInstr := cmp.Args[0].(*ir.Instr); isInstr && phi.Op == ir.OpPhi {
		v, ok := s.IndVarOf(phi)
		if !ok {
			return nil, false
		}
		iv = v
	} else if lin, ok := s.LinearOf(cmp.Args[0]); ok && lin.K == 1 {
		iv, cmpOff = lin.IV, lin.C
	} else {
		return nil, false
	}
	if iv.Step <= 0 {
		return nil, false
	}
	// A narrow IV wraps at its width unless it steps by one to a strict
	// bound of its own width.
	if iv.Phi.Typ.Bits < 64 && (cmp.Args[0] != ir.Value(iv.Phi) || iv.Step != 1 || cmp.Pred != ir.PredLT) {
		return nil, false
	}
	if !s.Inv.Invariant(cmp.Args[1]) {
		return nil, false
	}
	return &TripBound{IV: iv, Bound: cmp.Args[1], CmpOff: cmpOff, Inclusive: cmp.Pred == ir.PredLE}, true
}

// LastIVAdjust returns A such that the maximum induction value observed by
// an access in guardBlock is Bound + A. Derivation: entering the iteration
// with value iv requires the previous test (on iv-step+CmpOff) to have
// passed; the access additionally requires the current test to have passed
// when the test block (the header) executes before guardBlock within the
// iteration — which is every case except guardBlock being the header
// itself, where the access precedes the block-ending test.
func (tb *TripBound) LastIVAdjust(l *Loop, guardBlock *ir.Block) int64 {
	a := -tb.CmpOff - 1
	if tb.Inclusive {
		a++
	}
	if guardBlock == l.Header {
		a += tb.IV.Step // test for this iv has not run yet
	}
	return a
}

// AffineAccess describes a memory access whose address is an affine
// function of the loop's bounded induction variable:
//
//	addr(k) = Base + StartOff + k*StepBytes, for k in [0, trips)
//
// where Base is loop-invariant. This is the unit Optimization 2 merges.
type AffineAccess struct {
	Base      ir.Value // loop-invariant pointer
	Lin       *Linear  // byte offset as linear function of the IV
	StepBytes int64    // bytes advanced per IV increment (Lin.K * elem; >0)
	Bound     *TripBound
}

// AffineAccessOf recognizes ptr (the address operand of a load/store in the
// loop) as an affine access tied to the loop's trip bound. The element size
// of the GEP scales the linear function.
func (s *SCEV) AffineAccessOf(ptr ir.Value) (*AffineAccess, bool) {
	gep, ok := ptr.(*ir.Instr)
	if !ok || gep.Op != ir.OpGEP || len(gep.Args) != 2 {
		return nil, false
	}
	if !s.Inv.Invariant(gep.Args[0]) {
		return nil, false
	}
	lin, ok := s.LinearOf(gep.Args[1])
	if !ok {
		return nil, false
	}
	bound, ok := s.TripBoundOf()
	if !ok || bound.IV.Phi != lin.IV.Phi {
		return nil, false
	}
	elem := gep.Elem.Size()
	stepBytes := lin.K * lin.IV.Step * elem
	if stepBytes <= 0 {
		return nil, false
	}
	return &AffineAccess{
		Base:      gep.Args[0],
		Lin:       &Linear{IV: lin.IV, K: lin.K * elem, C: lin.C * elem},
		StepBytes: stepBytes,
		Bound:     bound,
	}, true
}
