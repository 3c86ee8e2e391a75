package analysis

import "carat/internal/ir"

// Invariance decides loop-invariance of SSA values with respect to one
// loop. Unlike a purely syntactic check, it uses the alias-analysis chain
// to prove loads invariant when nothing in the loop can clobber their
// address — the paper's "enhanced loop invariant analysis that relies on
// the PD analysis of CARAT" (§4.1.1, Optimization 1).
type Invariance struct {
	Loop *Loop
	AA   AliasAnalysis

	memo     []int8 // by Instr.ID: 0 unknown, 1 invariant, 2 variant
	stores   []*ir.Instr
	clobbers bool // loop contains a call that may write arbitrary memory
}

// NewInvariance prepares invariance queries for l using aa.
func NewInvariance(l *Loop, aa AliasAnalysis) *Invariance {
	iv := &Invariance{Loop: l, AA: aa, memo: make([]int8, l.Header.Fn.NumIDs())}
	for _, b := range l.Ordered {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				iv.stores = append(iv.stores, in)
			case ir.OpCall:
				if in.Callee == nil || !pureCall(in.Callee.Name) {
					iv.clobbers = true
				}
			}
		}
	}
	return iv
}

// pureCall reports whether a call to name cannot write program-visible
// memory. The runtime tracking callbacks mutate only runtime state, and
// malloc/calloc return fresh memory, so none of them clobber existing
// program data.
func pureCall(name string) bool {
	return ir.IsRuntimeFn(name)
}

// Invariant reports whether v has the same value on every iteration of the
// loop.
func (iv *Invariance) Invariant(v ir.Value) bool {
	switch x := v.(type) {
	case *ir.Const, *ir.Global, *ir.Func, *ir.Param:
		return true
	case *ir.Instr:
		if !iv.Loop.ContainsInstr(x) {
			return true
		}
		switch at(iv.memo, x.ID) {
		case 1:
			return true
		case 2:
			return false
		}
		iv.memo = put(iv.memo, x.ID, 2) // break cycles (phis) pessimistically
		res := iv.invariantInstr(x)
		if res {
			iv.memo[x.ID] = 1
		}
		return res
	}
	return false
}

func (iv *Invariance) invariantInstr(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpPhi, ir.OpAlloca, ir.OpCall, ir.OpStore,
		ir.OpBr, ir.OpCondBr, ir.OpRet, ir.OpUnreachable, ir.OpGuard:
		return false
	case ir.OpLoad:
		if iv.clobbers {
			return false
		}
		addr := in.Args[0]
		if !iv.Invariant(addr) {
			return false
		}
		size := in.AccessSize()
		for _, st := range iv.stores {
			if iv.AA.Alias(addr, size, st.Args[1], st.Args[0].Type().Size()) != NoAlias {
				return false
			}
		}
		return true
	default:
		for _, a := range in.Args {
			if !iv.Invariant(a) {
				return false
			}
		}
		return true
	}
}

// StackAllocFree reports whether the loop performs no stack allocation, the
// condition under which a call guard may be hoisted out of it (§4.1.1).
func (iv *Invariance) StackAllocFree() bool {
	for _, b := range iv.Loop.Ordered {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca {
				return false
			}
		}
	}
	return true
}
