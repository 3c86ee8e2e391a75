package passes

import (
	"hash/maphash"
	"strconv"

	"carat/internal/analysis"
	"carat/internal/ir"
)

// ConstFold folds instructions whose operands are all constants, and
// simplifies algebraic identities (x+0, x*1, x*0).
type ConstFold struct{}

// Name implements Pass.
func (*ConstFold) Name() string { return "constfold" }

// Preserves implements Pass: folding rewrites operands and removes
// instructions without touching block structure.
func (*ConstFold) Preserves() analysis.Preserved {
	return analysis.Preserve(analysis.IDCFG, analysis.IDDom, analysis.IDLoops)
}

// RunOnFunc implements Pass. A sweep is one Block.Edit per block: a folded
// instruction is dropped and its constant recorded by Instr.ID, and every
// instruction resolves its operands through that table as the sweep reaches
// it — so a fold feeds the folds after it, as rewriting every use at once
// would. A use the sweep passed before its operand folded (a back-edge phi)
// resolves in the next sweep, which a fold always triggers; the last sweep
// folds nothing and so leaves no use of a dropped instruction.
func (*ConstFold) RunOnFunc(f *ir.Func, stats *Stats, fa *analysis.FuncAnalyses) error {
	var repl []ir.Value // by Instr.ID, made at the first fold, kept across sweeps
	folded := 0
	fold := func(in *ir.Instr) (_, _ *ir.Instr, keep bool) {
		resolve(repl, in)
		c := foldInstr(in)
		if c == nil {
			return nil, nil, true
		}
		if repl == nil {
			repl = make([]ir.Value, f.NumIDs())
		}
		repl[in.ID] = c
		folded++
		return nil, nil, false
	}
	for {
		folded = 0
		for _, b := range f.Blocks {
			b.Edit(fold)
		}
		stats.Folded += folded
		if folded == 0 {
			return nil
		}
	}
}

// resolve rewrites each operand of in that repl (by Instr.ID) replaces.
// Replacements are never themselves replaced, so one lookup suffices.
func resolve(repl []ir.Value, in *ir.Instr) {
	if repl == nil {
		return
	}
	for i, a := range in.Args {
		if ai, ok := a.(*ir.Instr); ok && repl[ai.ID] != nil {
			in.Args[i] = repl[ai.ID]
		}
	}
}

// foldInstr returns the constant an instruction folds to, or nil.
func foldInstr(in *ir.Instr) *ir.Const {
	if in.Op.IsBinary() && in.Typ.IsInt() {
		a, okA := in.Args[0].(*ir.Const)
		b, okB := in.Args[1].(*ir.Const)
		if okA && okB {
			if v, err := ir.IntBinop(in.Op, uint64(a.Int), uint64(b.Int), in.Typ.Bits); err == nil {
				return ir.ConstInt(in.Typ, int64(v))
			}
		}
		// Identities.
		if okB {
			switch {
			case b.Int == 0 && (in.Op == ir.OpAdd || in.Op == ir.OpSub || in.Op == ir.OpOr ||
				in.Op == ir.OpXor || in.Op == ir.OpShl || in.Op == ir.OpLShr || in.Op == ir.OpAShr):
				if c, ok := in.Args[0].(*ir.Const); ok {
					return c
				}
			case b.Int == 1 && (in.Op == ir.OpMul || in.Op == ir.OpSDiv || in.Op == ir.OpUDiv):
				if c, ok := in.Args[0].(*ir.Const); ok {
					return c
				}
			case b.Int == 0 && in.Op == ir.OpMul:
				return ir.ConstInt(in.Typ, 0)
			case b.Int == 0 && in.Op == ir.OpAnd:
				return ir.ConstInt(in.Typ, 0)
			}
		}
	}
	if in.Op == ir.OpICmp {
		a, okA := in.Args[0].(*ir.Const)
		b, okB := in.Args[1].(*ir.Const)
		if okA && okB && a.Typ.IsInt() { // read at their width, as the engines read them
			return ir.ConstInt(ir.I1, boolToInt(ir.ICmpAt(in.ICmpPred(), uint64(a.Int), uint64(b.Int), a.Typ.Bits)))
		}
	}
	if in.Op.IsBinary() && in.Typ.IsFloat() {
		a, okA := in.Args[0].(*ir.Const)
		b, okB := in.Args[1].(*ir.Const)
		if okA && okB {
			switch in.Op {
			case ir.OpFAdd:
				return ir.ConstFloat(a.Float + b.Float)
			case ir.OpFSub:
				return ir.ConstFloat(a.Float - b.Float)
			case ir.OpFMul:
				return ir.ConstFloat(a.Float * b.Float)
			case ir.OpFDiv:
				if b.Float != 0 {
					return ir.ConstFloat(a.Float / b.Float)
				}
			}
		}
	}
	if in.Op.IsCast() {
		if a, ok := in.Args[0].(*ir.Const); ok {
			switch in.Op {
			case ir.OpTrunc:
				return ir.ConstInt(in.Typ, a.Int)
			case ir.OpZExt:
				return ir.ConstInt(in.Typ, int64(ir.MaskToWidth(uint64(a.Int), a.Typ.Bits)))
			case ir.OpSExt:
				return ir.ConstInt(in.Typ, ir.SignExtend(uint64(a.Int), a.Typ.Bits))
			case ir.OpSIToFP:
				return ir.ConstFloat(float64(ir.SignExtend(uint64(a.Int), a.Typ.Bits)))
			case ir.OpFPToSI:
				return ir.ConstInt(in.Typ, int64(a.Float))
			}
		}
	}
	return nil
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// DCE removes instructions whose results are unused and that have no side
// effects, iterating to a fixed point.
type DCE struct{}

// Name implements Pass.
func (*DCE) Name() string { return "dce" }

// Preserves implements Pass: removals keep block structure intact.
func (*DCE) Preserves() analysis.Preserved {
	return analysis.Preserve(analysis.IDCFG, analysis.IDDom, analysis.IDLoops)
}

// RunOnFunc implements Pass.
func (*DCE) RunOnFunc(f *ir.Func, stats *Stats, fa *analysis.FuncAnalyses) error {
	used := analysis.NewBits(f.NumIDs()) // by Instr.ID; DCE inserts nothing
	sweep := func(in *ir.Instr) (_, _ *ir.Instr, keep bool) {
		if sideEffectFree(in) && !used.Has(int(in.ID)) {
			stats.DCEd++
			return nil, nil, false
		}
		return nil, nil, true
	}
	for {
		clear(used)
		f.ForEachInstr(func(in *ir.Instr) {
			for _, a := range in.Args {
				if ai, ok := a.(*ir.Instr); ok {
					used.Set(int(ai.ID))
				}
			}
		})
		before := stats.DCEd
		for _, b := range f.Blocks {
			b.Edit(sweep)
		}
		if stats.DCEd == before {
			return nil
		}
	}
}

// sideEffectFree reports whether removing in cannot change behaviour
// (assuming its result is unused).
func sideEffectFree(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpStore, ir.OpCall, ir.OpBr, ir.OpCondBr, ir.OpRet,
		ir.OpUnreachable, ir.OpGuard, ir.OpAlloca:
		return false
	case ir.OpSDiv, ir.OpSRem, ir.OpUDiv, ir.OpURem:
		// May trap on zero divisors; keep unless divisor is a nonzero const.
		c, ok := in.Args[1].(*ir.Const)
		return ok && c.Int != 0
	case ir.OpLoad:
		// A load is observable under CARAT only through its guard, which
		// is separate; the load itself is removable when unused.
		return true
	}
	return true
}

// CSE performs dominance-based common subexpression elimination on pure
// instructions.
type CSE struct{}

// Name implements Pass.
func (*CSE) Name() string { return "cse" }

// Preserves implements Pass: merging uses keeps block structure intact.
func (*CSE) Preserves() analysis.Preserved {
	return analysis.Preserve(analysis.IDCFG, analysis.IDDom, analysis.IDLoops)
}

// RunOnFunc implements Pass. An eliminated instruction is recorded by
// Instr.ID and operands resolve through that table as the walk reaches
// them (in RPO, so before their key is taken); a block with eliminations
// then drops them in one Block.Edit, and one last walk resolves the uses
// the RPO walk reached first or never (back-edge phis, unreachable blocks).
func (*CSE) RunOnFunc(f *ir.Func, stats *Stats, fa *analysis.FuncAnalyses) error {
	cfg := fa.CFG()
	dom := fa.Dom()
	t := cseTable{heads: make(map[uint64]cseChain, f.NumInstrs()/4), seed: maphash.MakeSeed()}
	var repl []ir.Value // by Instr.ID, made at the first elimination
	drop := func(in *ir.Instr) (_, _ *ir.Instr, keep bool) { return nil, nil, repl[in.ID] == nil }
	for _, b := range cfg.RPO {
		hits := 0
		for _, in := range b.Instrs {
			resolve(repl, in)
			if !pureValueOp(in) {
				continue
			}
			if prev := t.lookup(in, dom); prev != nil {
				if repl == nil {
					repl = make([]ir.Value, f.NumIDs())
				}
				repl[in.ID] = prev
				hits++
			}
		}
		if hits > 0 {
			b.Edit(drop)
			stats.CSEd += hits
		}
	}
	if repl != nil {
		f.ForEachInstr(func(in *ir.Instr) { resolve(repl, in) })
	}
	return nil
}

// cseTable holds, per expression key, the instructions that computed it in
// insertion order: a hash of the key bytes heads a chain through entries,
// and every entry's key lives in one shared byte arena.
type cseTable struct {
	heads   map[uint64]cseChain
	entries []cseEntry
	keys    []byte
	seed    maphash.Seed
}

type cseChain struct{ first, last int32 }

type cseEntry struct {
	in       *ir.Instr
	off, end int32 // the key is keys[off:end]
	next     int32 // the chain's next entry, -1 at its end
}

// lookup returns the first instruction recorded under in's key that
// dominates in; when there is none it records in and returns nil. Block
// dominance decides: the RPO walk records an instruction only after every
// one before it in its block, so a recorded entry in in's own block precedes
// it.
func (t *cseTable) lookup(in *ir.Instr, dom *analysis.DomTree) *ir.Instr {
	off := len(t.keys)
	t.keys = exprKey(t.keys, in)
	key := t.keys[off:]
	h := maphash.Bytes(t.seed, key)
	ch, ok := t.heads[h]
	for j := ch.first; ok && j >= 0; j = t.entries[j].next {
		e := &t.entries[j]
		if string(t.keys[e.off:e.end]) == string(key) && dom.Dominates(e.in.Block, in.Block) {
			t.keys = t.keys[:off]
			return e.in
		}
	}
	n := int32(len(t.entries))
	t.entries = append(t.entries, cseEntry{in: in, off: int32(off), end: int32(len(t.keys)), next: -1})
	if ok {
		t.entries[ch.last].next = n
		ch.last = n
	} else {
		ch = cseChain{n, n}
	}
	t.heads[h] = ch
	return nil
}

// pureValueOp reports whether in computes a pure value eligible for CSE.
func pureValueOp(in *ir.Instr) bool {
	if in.Op.IsBinary() || in.Op.IsCast() {
		return true
	}
	switch in.Op {
	case ir.OpICmp, ir.OpFCmp, ir.OpGEP, ir.OpSelect:
		return true
	}
	return false
}

// exprKey appends in's structural CSE key to b: two instructions get equal
// keys exactly when they apply the same operation, at structurally equal
// types, to the same operands. Constants are operands by printed value and
// type, instructions by identity (their ID).
func exprKey(b []byte, in *ir.Instr) []byte {
	b = append(b, byte(in.Op), byte(in.Pred))
	b = in.Typ.AppendText(b)
	if in.Elem != nil {
		b = in.Elem.AppendText(append(b, '/'))
	}
	for _, a := range in.Args {
		b = append(b, '|')
		switch x := a.(type) {
		case *ir.Const:
			b = x.Typ.AppendText(x.AppendRef(append(b, 'c')))
		case *ir.Global:
			b = append(append(b, '@'), x.Name...)
		case *ir.Param:
			b = strconv.AppendInt(append(b, 'p'), int64(x.Idx), 10)
		case *ir.Func:
			b = append(append(b, 'f'), x.Name...)
		case *ir.Instr:
			b = strconv.AppendInt(append(b, 'i'), int64(x.ID), 10)
		default:
			b = append(b, '?')
		}
	}
	return b
}

// LICM hoists loop-invariant pure computations to loop preheaders. Loads
// are hoisted only when the alias chain proves no in-loop store clobbers
// them and the load is guaranteed to execute (its block dominates every
// latch).
type LICM struct{}

// Name implements Pass.
func (*LICM) Name() string { return "licm" }

// Preserves implements Pass: moving instructions to preheaders keeps
// block structure intact but changes loop contents (invariance, SCEV) and
// the homes of values the alias/range analyses memoized.
func (*LICM) Preserves() analysis.Preserved {
	return analysis.Preserve(analysis.IDCFG, analysis.IDDom, analysis.IDLoops)
}

// RunOnFunc implements Pass.
func (*LICM) RunOnFunc(f *ir.Func, stats *Stats, fa *analysis.FuncAnalyses) error {
	cfg := fa.CFG()
	dom := fa.Dom()
	var inv *analysis.Invariance
	var latches []*ir.Block
	stats.LICMMoved += hoistEach(fa, cfg, func(l *analysis.Loop) {
		inv, latches = fa.Invariance(l), l.Latches(cfg)
	}, func(l *analysis.Loop, ph, b *ir.Block, in *ir.Instr) bool {
		return (pureValueOp(in) || in.Op == ir.OpLoad) &&
			(in.Op != ir.OpLoad || dominatesAll(dom, b, latches)) &&
			invariantInstr(inv, in) && operandsAvailable(dom, l, in, ph)
	})
	return nil
}

// hoistEach sweeps each loop that has a preheader, innermost first: enter
// readies what goes needs to know of the loop, and every instruction of the
// loop's blocks that goes approves moves to the preheader. A loop's moves
// land before the next loop is swept, so an outer loop sees what an inner
// one hoisted. It returns how many instructions moved.
func hoistEach(fa *analysis.FuncAnalyses, cfg *analysis.CFG, enter func(l *analysis.Loop),
	goes func(l *analysis.Loop, ph, b *ir.Block, in *ir.Instr) bool) int {
	var e loopEdit
	moved := 0
	all := fa.Loops().All()
	for i := len(all) - 1; i >= 0; i-- {
		l := all[i]
		ph := l.Preheader(cfg)
		if ph == nil {
			continue
		}
		enter(l)
		for _, b := range l.Ordered {
			for _, in := range b.Instrs {
				if goes(l, ph, b, in) {
					e.hoist(in, ph)
				}
			}
		}
		moved += len(e.place)
		e.apply(l, ph)
	}
	return moved
}

// loopEdit gathers what a pass does to one loop before doing any of it, so
// that apply edits each loop block and the preheader once: O(n + k) for the
// loop. A taken instruction's Block already says where it is going — the
// preheader for a hoist, nil for a drop — while it still sits in its loop
// block, so whatever asks where it lives (operand availability, loop
// membership) gets the answer moving it at once would give. place lists what
// goes before the preheader's terminator, in order.
type loopEdit struct{ place []*ir.Instr }

// hoist moves in from its loop block to the preheader ph.
func (e *loopEdit) hoist(in *ir.Instr, ph *ir.Block) {
	in.Block = ph
	e.place = append(e.place, in)
}

// apply carries out what was gathered for l, whose preheader is ph. Every
// pass that takes an instruction out also places one, so a loop with nothing
// to place is untouched.
func (e *loopEdit) apply(l *analysis.Loop, ph *ir.Block) {
	if len(e.place) == 0 {
		return
	}
	for _, b := range l.Ordered {
		b.Edit(func(in *ir.Instr) (_, _ *ir.Instr, keep bool) { return nil, nil, in.Block == b })
	}
	ph.Insert(len(ph.Instrs)-1, e.place...)
	e.place = e.place[:0]
}

// invariantInstr checks the instruction itself (not just a Value use).
func invariantInstr(inv *analysis.Invariance, in *ir.Instr) bool {
	if in.Op == ir.OpLoad {
		return inv.Invariant(in)
	}
	for _, a := range in.Args {
		if !inv.Invariant(a) {
			return false
		}
	}
	return true
}

// operandsAvailable reports whether every operand of in is defined outside
// the loop (so it dominates the preheader) or is a non-instruction value.
func operandsAvailable(dom *analysis.DomTree, l *analysis.Loop, in *ir.Instr, ph *ir.Block) bool {
	for _, a := range in.Args {
		ai, ok := a.(*ir.Instr)
		if !ok {
			continue
		}
		if l.Contains(ai.Block) {
			return false
		}
		if !dom.Dominates(ai.Block, ph) {
			return false
		}
	}
	return true
}

func dominatesAll(dom *analysis.DomTree, b *ir.Block, targets []*ir.Block) bool {
	for _, t := range targets {
		if !dom.Dominates(b, t) {
			return false
		}
	}
	return true
}
