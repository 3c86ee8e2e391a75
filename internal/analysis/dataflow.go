package analysis

import "carat/internal/ir"

// Bits is a fixed-width bitset used by the dataflow framework.
type Bits []uint64

// NewBits returns a bitset able to hold n bits, all clear.
func NewBits(n int) Bits { return make(Bits, (n+63)/64) }

// Set sets bit i.
func (b Bits) Set(i int) { b[i/64] |= 1 << (i % 64) }

// Clear clears bit i.
func (b Bits) Clear(i int) { b[i/64] &^= 1 << (i % 64) }

// Has reports whether bit i is set; a bit past the end of b is clear (the
// bitset form of at: see there).
func (b Bits) Has(i int) bool { return i/64 < len(b) && b[i/64]&(1<<(i%64)) != 0 }

// With returns b with bit i set, grown first when i is past its end (the
// bitset form of put).
func (b Bits) With(i int) Bits {
	if n := i/64 + 1; n > len(b) {
		b = append(b, make(Bits, n-len(b))...)
	}
	b.Set(i)
	return b
}

// AndWith intersects b with o in place and reports whether b changed.
func (b Bits) AndWith(o Bits) bool {
	changed := false
	for i := range b {
		n := b[i] & o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// OrWith unions o into b in place and reports whether b changed.
func (b Bits) OrWith(o Bits) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

// Equal reports whether b and o have identical contents.
func (b Bits) Equal(o Bits) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// FillAll sets every bit in the universe of size n, a word at a time.
func (b Bits) FillAll(n int) {
	for i := range b[:n/64] {
		b[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		b[n/64] |= 1<<r - 1
	}
}

// ForwardMust runs a forward "must" (intersection-confluence) dataflow to a
// fixed point, as used by available-expressions style analyses (the AC/DC
// analysis of paper §4.1.1). universe is the number of facts; transfer maps
// a block's IN set to its OUT set: it gets a scratch copy of IN, which it may
// change and return but not keep. The result is each reachable block's IN set
// by Block.Idx (nil for an unreachable block). The entry block starts from
// the empty set, all others from the full set (top). Every set is carved from
// one slab: the analysis allocates per call, not per block or per visit.
func ForwardMust(c *CFG, universe int, transfer func(b *ir.Block, in Bits) Bits) []Bits {
	words, n := (universe+63)/64, len(c.RPO)
	slab := make(Bits, (2*n+1)*words)
	set := func(i int) Bits { return slab[i*words : (i+1)*words : (i+1)*words] }
	ins, outs, scratch := make([]Bits, len(c.Fn.Blocks)), make([]Bits, len(c.Fn.Blocks)), set(2*n)
	for i, b := range c.RPO {
		ins[b.Idx], outs[b.Idx] = set(2*i), set(2*i+1)
		if i > 0 {
			ins[b.Idx].FillAll(universe)
		}
		outs[b.Idx].FillAll(universe)
	}
	for changed := true; changed; {
		changed = false
		for i, b := range c.RPO {
			in := ins[b.Idx]
			if i > 0 {
				first := true
				for _, p := range c.PredsOf(b) {
					if !c.Reachable(p) {
						continue
					}
					if first {
						copy(in, outs[p.Idx])
						first = false
					} else {
						in.AndWith(outs[p.Idx])
					}
				}
				if first { // no reachable preds (shouldn't happen past entry)
					clear(in)
				}
			}
			copy(scratch, in)
			if out := transfer(b, scratch); !out.Equal(outs[b.Idx]) {
				copy(outs[b.Idx], out)
				changed = true
			}
		}
	}
	return ins
}
