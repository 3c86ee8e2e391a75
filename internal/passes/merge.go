package passes

import (
	"math/bits"

	"carat/internal/analysis"
	"carat/internal/ir"
)

// MergeGuards is Optimization 2 (§4.1.1): when a loop walks an affine
// address sequence base + start + k*step for k in [0, trips), the
// per-iteration guards are replaced by a single range guard in the
// preheader checking the lowest and highest address the loop will touch.
// The range extent is computed at run time from the loop bound; the VM
// treats a non-positive extent as a trivially passing guard (the loop body
// never runs). An access in the loop header runs once even then, at the
// IV's start, so a header guard's extent is floored at the access size.
//
// A second merging rule uses the value-range analysis (the paper combines
// SCEV with a value range analysis): a guard whose index is not affine but
// provably bounded — rnd & (N-1), x urem N — merges into a constant range
// guard over the index's whole addressable window. This is what lets the
// random-access benchmarks (canneal, deepsjeng, xz) amortize their guards.
type MergeGuards struct{}

// Name implements Pass.
func (*MergeGuards) Name() string { return "carat-scev-merge" }

// Preserves implements Pass. Merging keeps block structure intact but
// synthesizes new values (range-guard address arithmetic) the precomputed
// alias and range analyses have never seen, so only the structural
// analyses survive.
func (*MergeGuards) Preserves() analysis.Preserved {
	return analysis.Preserve(analysis.IDCFG, analysis.IDDom, analysis.IDLoops)
}

// RunOnFunc implements Pass.
func (*MergeGuards) RunOnFunc(f *ir.Func, stats *Stats, fa *analysis.FuncAnalyses) error {
	cfg := fa.CFG()
	dom := fa.Dom()
	var e loopEdit
	all := fa.Loops().All()
	for i := len(all) - 1; i >= 0; i-- { // innermost first
		l := all[i]
		ph := l.Preheader(cfg)
		if ph == nil {
			continue
		}
		scev := fa.SCEV(l) // pulls the loop's invariance facts through the cache
		latches := l.Latches(cfg)

		// Collect mergeable guards grouped by (base, kind irrelevant):
		// every affine guard over the same base and bound merges into one
		// range check covering the union of the per-guard ranges.
		type cand struct {
			g   *ir.Instr
			acc *analysis.AffineAccess
			sz  int64
		}
		ranges := fa.Ranges()
		var cands []cand
		var bounded []boundedCand
		for _, b := range l.Ordered {
			if !dominatesAll(dom, b, latches) {
				continue // conditional accesses cannot be over-guarded
			}
			for _, in := range b.Instrs {
				if in.Op != ir.OpGuard || (in.Kind != ir.GuardLoad && in.Kind != ir.GuardStore) {
					continue
				}
				szc, ok := in.Args[1].(*ir.Const)
				if !ok {
					continue
				}
				if acc, ok := scev.AffineAccessOf(in.Args[0]); ok {
					// The base pointer, bound, and IV start must be
					// available at the preheader.
					if bi, isInstr := acc.Base.(*ir.Instr); isInstr {
						if l.Contains(bi.Block) || !dom.Dominates(bi.Block, ph) {
							continue
						}
					}
					if valueAvailableAt(dom, l, acc.Bound.Bound, ph) &&
						valueAvailableAt(dom, l, acc.Lin.IV.Start, ph) {
						cands = append(cands, cand{g: in, acc: acc, sz: szc.Int})
						continue
					}
				}
				if bc, ok := boundedAccessOf(ranges, dom, l, ph, in, szc.Int); ok {
					bounded = append(bounded, bc)
				}
			}
		}
		for _, c := range cands {
			kind := ir.GuardRange
			if c.g.Kind == ir.GuardStore {
				kind = ir.GuardRangeStore
			}
			lastAdj := c.acc.Bound.LastIVAdjust(l, c.g.Block)
			hiConst, ok := rangeGuardConst(c.acc, c.sz, lastAdj)
			if !ok {
				continue // the guard's i64 arithmetic would wrap: it stays
			}
			emitRangeGuard(f, &e, c.acc, c.sz, hiConst, kind, c.g.Block == l.Header)
			c.g.Block = nil // dropped by e.apply
			if stats.Attribute(c.g) {
				stats.Merged++
			}
			stats.RangeNew++
		}
		// Bounded-index guards over the same (base, window, kind) share
		// one constant range guard in the preheader.
		type key struct {
			base    ir.Value
			lo, sp  int64
			isStore bool
		}
		emitted := map[key]bool{}
		for _, bc := range bounded {
			k := key{bc.base, bc.loOff, bc.span, bc.isStore}
			if !emitted[k] {
				emitted[k] = true
				kind := ir.GuardRange
				if bc.isStore {
					kind = ir.GuardRangeStore
				}
				emitConstRangeGuard(f, &e, bc.base, bc.loOff, bc.span, kind)
				stats.RangeNew++
			}
			bc.g.Block = nil
			if stats.Attribute(bc.g) {
				stats.Merged++
			}
		}
		e.apply(l, ph)
	}
	return nil
}

// boundedCand is a guard mergeable by the bounded-index rule.
type boundedCand struct {
	g       *ir.Instr
	base    ir.Value
	loOff   int64 // constant byte offset of the lowest address
	span    int64 // constant byte extent
	isStore bool
}

// boundedAccessOf recognizes a guard whose address is gep(base, idx) with
// a loop-invariant, preheader-available base and an index whose unsigned
// value range is bounded: the guard merges into a constant range guard
// over [base + lo*elem, base + hi*elem + size).
func boundedAccessOf(ranges *analysis.Ranges, dom *analysis.DomTree, l *analysis.Loop,
	ph *ir.Block, g *ir.Instr, size int64) (bc boundedCand, ok bool) {
	gep, isGep := g.Args[0].(*ir.Instr)
	if !isGep || gep.Op != ir.OpGEP || len(gep.Args) != 2 {
		return bc, false
	}
	base := gep.Args[0]
	if bi, isInstr := base.(*ir.Instr); isInstr {
		if l.Contains(bi.Block) || !dom.Dominates(bi.Block, ph) {
			return bc, false
		}
	}
	iv := ranges.Of(gep.Args[1])
	// Ranges are unsigned at the width, but a GEP reads a narrow index
	// sign-extended: an interval reaching the sign bit is no window.
	if bits := gep.Args[1].Type().Bits; iv.IsFull() || bits > 1 && bits < 64 && iv.Hi >= 1<<uint(bits-1) {
		return bc, false
	}
	elem := gep.Elem.Size()
	// Keep spans sane: a window above 1 GiB is no longer a useful merge.
	const maxSpan = int64(1) << 30
	if iv.Hi > uint64(maxSpan)/uint64(elem) {
		return bc, false
	}
	lo := int64(iv.Lo) * elem
	hi := int64(iv.Hi)*elem + size
	bc.g = g
	bc.base = base
	bc.loOff = lo
	bc.span = hi - lo
	bc.isStore = g.Kind == ir.GuardStore
	return bc, true
}

// emitConstRangeGuard queues for the preheader a range guard over
// [base+loOff, base+loOff+span).
func emitConstRangeGuard(f *ir.Func, e *loopEdit, base ir.Value, loOff, span int64, kind ir.GuardKind) {
	lo := &ir.Instr{Op: ir.OpGEP, Name: f.FreshName("rg"), Typ: ir.Ptr, Elem: ir.I8,
		Args: []ir.Value{base, ir.ConstInt(ir.I64, loOff)}}
	gu := &ir.Instr{Op: ir.OpGuard, Typ: ir.Void, Kind: kind,
		Args: []ir.Value{lo, ir.ConstInt(ir.I64, span)}}
	e.place = append(e.place, lo, gu)
}

// valueAvailableAt reports whether v is usable at block ph.
func valueAvailableAt(dom *analysis.DomTree, l *analysis.Loop, v ir.Value, ph *ir.Block) bool {
	in, ok := v.(*ir.Instr)
	if !ok {
		return true
	}
	return !l.Contains(in.Block) && dom.Dominates(in.Block, ph)
}

// emitRangeGuard queues for the preheader:
//
//	lowOff  = K*start + C
//	lo      = gep i8 base, lowOff
//	span    = K*(bound+lastAdj) + C + size - lowOff
//	guard range lo, span
//
// where bound+lastAdj is the maximum induction value the guarded access
// observes (see TripBound.LastIVAdjust) and hiConst is K*lastAdj + C + size
// (rangeGuardConst). All arithmetic is i64; the VM treats a non-positive
// span as a trivially passing guard. A header access runs once at the IV's
// start even when the loop never iterates, so inHeader floors the span at
// size (that access's own range at lo):
//
//	lt   = icmp slt span, size
//	span = select lt, size, span
func emitRangeGuard(f *ir.Func, e *loopEdit, acc *analysis.AffineAccess, size, hiConst int64, kind ir.GuardKind, inHeader bool) {
	ins := func(in *ir.Instr) *ir.Instr {
		e.place = append(e.place, in)
		return in
	}
	newv := func(op ir.Op, a, b ir.Value) *ir.Instr {
		return ins(&ir.Instr{Op: op, Name: f.FreshName("rg"), Typ: ir.I64, Args: []ir.Value{a, b}})
	}
	k := ir.ConstInt(ir.I64, acc.Lin.K)
	cOff := ir.ConstInt(ir.I64, acc.Lin.C)

	start := widenToI64(f, e, acc.Lin.IV.Start)
	bound := widenToI64(f, e, acc.Bound.Bound)

	lowOff := newv(ir.OpAdd, newv(ir.OpMul, k, start), cOff)
	lo := ins(&ir.Instr{Op: ir.OpGEP, Name: f.FreshName("rg"), Typ: ir.Ptr, Elem: ir.I8,
		Args: []ir.Value{acc.Base, lowOff}})

	hiOff := newv(ir.OpAdd, newv(ir.OpMul, k, bound), ir.ConstInt(ir.I64, hiConst))
	span := newv(ir.OpSub, hiOff, lowOff)
	if inHeader {
		sz := ir.ConstInt(ir.I64, size)
		lt := ins(&ir.Instr{Op: ir.OpICmp, Name: f.FreshName("rg"), Typ: ir.I1, Pred: ir.PredLT, Args: []ir.Value{span, sz}})
		span = ins(&ir.Instr{Op: ir.OpSelect, Name: f.FreshName("rg"), Typ: ir.I64, Args: []ir.Value{lt, sz, span}})
	}
	ins(&ir.Instr{Op: ir.OpGuard, Typ: ir.Void, Kind: kind, Args: []ir.Value{lo, span}})
}

// rangeGuardConst returns emitRangeGuard's hiConst, K*lastAdj + C + size,
// and whether the guard's constant arithmetic fits in i64: hiConst, and
// with a constant start or bound K*start + C, K*bound + hiConst and the span
// between them. Wrapped, a span can come out small or negative and pass an
// access far outside it.
func rangeGuardConst(acc *analysis.AffineAccess, size, lastAdj int64) (int64, bool) {
	ok := true
	ma := func(a, b, c int64) int64 {
		v, fits := mulAdd(a, b, c)
		ok = ok && fits
		return v
	}
	k, c := acc.Lin.K, acc.Lin.C
	hiConst := ma(ma(k, lastAdj, c), 1, size)
	start, constStart := acc.Lin.IV.Start.(*ir.Const)
	bound, constBound := acc.Bound.Bound.(*ir.Const)
	var lowOff, hiOff int64
	if constStart {
		lowOff = ma(k, start.Int, c) // a narrow constant's Int is its sign extension
	}
	if constBound {
		hiOff = ma(k, bound.Int, hiConst)
	}
	if constStart && constBound {
		ma(-1, lowOff, hiOff)
	}
	return hiConst, ok
}

// mulAdd returns a*b + c and whether a*b and the sum fit in an int64: the
// signed product's high word, the unsigned one's less a negative factor's
// partner, must be the low word's sign.
func mulAdd(a, b, c int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	p := int64(lo)
	s := p + c
	return s, int64(hi) == p>>63 && (s > p) == (c > 0)
}

// widenToI64 sign-extends v to i64 in the preheader if needed.
func widenToI64(f *ir.Func, e *loopEdit, v ir.Value) ir.Value {
	if v.Type().Equal(ir.I64) {
		return v
	}
	if c, ok := v.(*ir.Const); ok {
		return ir.ConstInt(ir.I64, c.Int)
	}
	in := &ir.Instr{Op: ir.OpSExt, Name: f.FreshName("rgw"), Typ: ir.I64, Args: []ir.Value{v}}
	e.place = append(e.place, in)
	return in
}
