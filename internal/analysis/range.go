package analysis

import "carat/internal/ir"

// Value-range analysis (the paper's §4.1.1 cites Birch et al.'s analysis
// of conditionally updated variables and pointers). This implementation
// computes conservative unsigned intervals for integer SSA values by
// structural recursion over their defining expressions. Optimization 2
// uses it to merge guards whose index is not affine but provably bounded —
// e.g. rnd & (N-1) or x urem N — into a single range guard covering the
// whole addressable window.

// Interval is an inclusive unsigned range [Lo, Hi]. The zero Interval is
// the single value 0.
type Interval struct {
	Lo, Hi uint64
}

// FullInterval is the unconstrained 64-bit range.
var FullInterval = Interval{0, ^uint64(0)}

// IsFull reports whether the interval carries no information.
func (iv Interval) IsFull() bool { return iv == FullInterval }

// Ranges computes intervals for integer values. It is loop-aware only in
// the negative sense: phi nodes and loads are unconstrained unless their
// width bounds them. Memoized per instance.
type Ranges struct {
	memo []rangeMemo // by Instr.ID; only instructions recurse, so only they are memoized
}

type rangeMemo struct {
	iv    Interval
	known bool
}

// NewRanges returns an empty analysis instance for the values of f.
func NewRanges(f *ir.Func) *Ranges {
	return &Ranges{memo: make([]rangeMemo, f.NumIDs())}
}

// Of returns a conservative unsigned interval for v. Any integer value is
// at least bounded by its type width.
func (r *Ranges) Of(v ir.Value) Interval {
	in, isInstr := v.(*ir.Instr)
	if isInstr {
		if m := at(r.memo, in.ID); m.known {
			return m.iv
		}
		// Seed with the type-width bound and the pessimistic answer so that
		// cycles (phis) terminate conservatively.
		r.memo = put(r.memo, in.ID, rangeMemo{widthBound(v), true})
	}
	iv := r.compute(v)
	// compute checks add, mul and shl for overflow at 64 bits only, so an
	// interval past the width bound wraps at the width: give up on it, as
	// on a contradictory one (which shouldn't happen).
	if wb := widthBound(v); iv.Hi > wb.Hi || iv.Lo > iv.Hi {
		iv = wb
	}
	if isInstr {
		r.memo[in.ID].iv = iv
	}
	return iv
}

func widthBound(v ir.Value) Interval {
	t := v.Type()
	if !t.IsInt() || t.Bits >= 64 {
		return FullInterval
	}
	return Interval{0, 1<<uint(t.Bits) - 1}
}

func (r *Ranges) compute(v ir.Value) Interval {
	switch x := v.(type) {
	case *ir.Const:
		if x.Typ.IsInt() { // stored sign-extended: read it at its width
			u := ir.MaskToWidth(uint64(x.Int), x.Typ.Bits)
			return Interval{u, u}
		}
		return FullInterval
	case *ir.Instr:
		return r.computeInstr(x)
	}
	return widthBound(v)
}

func (r *Ranges) computeInstr(in *ir.Instr) Interval {
	switch in.Op {
	case ir.OpAnd:
		// x & mask <= mask (for non-negative masks); also <= other side.
		a, b := r.Of(in.Args[0]), r.Of(in.Args[1])
		hi := a.Hi
		if b.Hi < hi {
			hi = b.Hi
		}
		return Interval{0, hi}

	case ir.OpURem:
		// x urem m < m (when m's range excludes 0 we could do better; the
		// VM traps on 0 divisors, so using Hi-1 is sound for executions
		// that continue).
		m := r.Of(in.Args[1])
		if m.Hi == 0 {
			return Interval{0, 0}
		}
		return Interval{0, m.Hi - 1}

	case ir.OpLShr:
		a := r.Of(in.Args[0])
		if c, ok := in.Args[1].(*ir.Const); ok && c.Int >= 0 && c.Int < 64 {
			return Interval{a.Lo >> uint(c.Int), a.Hi >> uint(c.Int)}
		}
		return Interval{0, a.Hi}

	case ir.OpAdd:
		a, b := r.Of(in.Args[0]), r.Of(in.Args[1])
		lo, hi := a.Lo+b.Lo, a.Hi+b.Hi
		if hi < a.Hi || hi < b.Hi { // overflow: give up
			return FullInterval
		}
		return Interval{lo, hi}

	case ir.OpSub:
		a, b := r.Of(in.Args[0]), r.Of(in.Args[1])
		if a.Lo >= b.Hi { // cannot underflow
			return Interval{a.Lo - b.Hi, a.Hi - b.Lo}
		}
		return FullInterval

	case ir.OpMul:
		a, b := r.Of(in.Args[0]), r.Of(in.Args[1])
		if a.Hi != 0 && b.Hi != 0 {
			hi := a.Hi * b.Hi
			if hi/a.Hi != b.Hi { // overflow
				return FullInterval
			}
			return Interval{a.Lo * b.Lo, hi}
		}
		return Interval{0, 0}

	case ir.OpShl:
		a := r.Of(in.Args[0])
		if c, ok := in.Args[1].(*ir.Const); ok && c.Int >= 0 && c.Int < 64 {
			hi := a.Hi << uint(c.Int)
			if hi>>uint(c.Int) != a.Hi { // overflow
				return FullInterval
			}
			return Interval{a.Lo << uint(c.Int), hi}
		}
		return FullInterval

	case ir.OpSelect:
		a, b := r.Of(in.Args[1]), r.Of(in.Args[2])
		lo, hi := a.Lo, a.Hi
		if b.Lo < lo {
			lo = b.Lo
		}
		if b.Hi > hi {
			hi = b.Hi
		}
		return Interval{lo, hi}

	case ir.OpZExt:
		return r.Of(in.Args[0])

	case ir.OpPhi:
		// Bounded only when every incoming is already memoized-bounded;
		// the seed in Of makes recursive self-references safe.
		iv := Interval{^uint64(0), 0}
		for _, a := range in.Args {
			av := r.Of(a)
			if av.IsFull() {
				return FullInterval
			}
			if av.Lo < iv.Lo {
				iv.Lo = av.Lo
			}
			if av.Hi > iv.Hi {
				iv.Hi = av.Hi
			}
		}
		if iv.Lo > iv.Hi {
			return FullInterval
		}
		return iv
	}
	return widthBound(in)
}
