package analysis

import (
	"slices"

	"carat/internal/ir"
)

// AliasResult is the verdict of an alias query.
type AliasResult int

// Alias verdicts.
const (
	MayAlias AliasResult = iota
	NoAlias
	MustAlias
)

// String returns a readable verdict name.
func (r AliasResult) String() string {
	switch r {
	case NoAlias:
		return "no"
	case MustAlias:
		return "must"
	}
	return "may"
}

// AliasAnalysis answers whether two (pointer, size) accesses may overlap.
// Implementations must be conservative: MayAlias is always a safe answer.
type AliasAnalysis interface {
	// Name identifies the analysis in statistics output.
	Name() string
	// Alias reports the relation between the byte ranges [a, a+asz) and
	// [b, b+bsz).
	Alias(a ir.Value, asz int64, b ir.Value, bsz int64) AliasResult
}

// Chain combines several alias analyses with LLVM's "alias chaining"
// best-of-N discipline (paper §4.1.1): the first definitive answer
// (NoAlias or MustAlias) wins; otherwise MayAlias.
type Chain struct {
	AAs []AliasAnalysis
}

// NewChain returns the default chained stack used by the CARAT passes for
// function f.
func NewChain(f *ir.Func) *Chain {
	return &Chain{AAs: []AliasAnalysis{
		&BaseObjectAA{},
		NewPointsToAA(f),
	}}
}

// Name implements AliasAnalysis.
func (c *Chain) Name() string { return "chain" }

// Alias implements AliasAnalysis by querying each member in order.
func (c *Chain) Alias(a ir.Value, asz int64, b ir.Value, bsz int64) AliasResult {
	for _, aa := range c.AAs {
		if r := aa.Alias(a, asz, b, bsz); r != MayAlias {
			return r
		}
	}
	return MayAlias
}

// DecomposePtr strips a chain of GEPs off v, returning the underlying base
// pointer, the accumulated byte offset, and whether the offset is exact
// (false when any GEP index is non-constant).
func DecomposePtr(v ir.Value) (base ir.Value, offset int64, exact bool) {
	offset, exact = 0, true
	for {
		in, ok := v.(*ir.Instr)
		if !ok || in.Op != ir.OpGEP {
			return v, offset, exact
		}
		// First index scales by the element size; subsequent indices step
		// into aggregates.
		t := in.Elem
		for i, idx := range in.Args[1:] {
			c, isConst := idx.(*ir.Const)
			var scale int64
			if i == 0 {
				scale = t.Size()
			} else {
				switch t.Kind {
				case ir.ArrayKind:
					t = t.Elem
					scale = t.Size()
				case ir.StructKind:
					if !isConst {
						return in.Args[0], 0, false
					}
					offset += t.FieldOffset(int(c.Int))
					t = t.Fields[c.Int]
					continue
				default:
					scale = t.Size()
				}
			}
			if !isConst {
				exact = false
				continue
			}
			offset += c.Int * scale
		}
		v = in.Args[0]
	}
}

// UnderlyingObject returns the allocation site a pointer is derived from:
// a *ir.Global, an alloca *ir.Instr, a malloc/calloc call *ir.Instr, or
// nil when the object cannot be identified (params, loads, phis, casts).
func UnderlyingObject(v ir.Value) ir.Value {
	base, _, _ := DecomposePtr(v)
	switch x := base.(type) {
	case *ir.Global:
		return x
	case *ir.Instr:
		if x.Op == ir.OpAlloca {
			return x
		}
		if x.Op == ir.OpCall && x.Callee != nil && ir.IsAllocFn(x.Callee.Name) {
			return x
		}
	}
	return nil
}

// BaseObjectAA disambiguates accesses by identifying the allocation each
// pointer is derived from: distinct identified objects never alias, and
// same-object accesses with exact offsets alias iff their ranges overlap.
type BaseObjectAA struct{}

// Name implements AliasAnalysis.
func (*BaseObjectAA) Name() string { return "base-object" }

// Alias implements AliasAnalysis.
func (*BaseObjectAA) Alias(a ir.Value, asz int64, b ir.Value, bsz int64) AliasResult {
	baseA, offA, exactA := DecomposePtr(a)
	baseB, offB, exactB := DecomposePtr(b)
	objA, objB := UnderlyingObject(a), UnderlyingObject(b)
	if objA != nil && objB != nil && objA != objB {
		return NoAlias
	}
	if baseA == baseB {
		if exactA && exactB {
			if offA == offB && asz == bsz {
				return MustAlias
			}
			if offA+asz <= offB || offB+bsz <= offA {
				return NoAlias
			}
			return MayAlias
		}
		return MayAlias
	}
	return MayAlias
}

// PointsToAA is a flow-insensitive, function-local inclusion-based
// points-to analysis in the style of Steensgaard/Andersen. Each pointer
// SSA value gets a set of abstract objects (allocas, globals, allocation
// calls); values whose provenance cannot be tracked (parameters, loads,
// external calls, inttoptr) point to a distinguished unknown object.
type PointsToAA struct {
	// sets holds each pointer-typed instruction's objects, by Instr.ID, in
	// the order the fixed point found them (a function of the IR alone). A
	// nil entry — a non-pointer, or an instruction born after the table was
	// sized — means "unknown"; an empty one points at nothing (null-derived).
	sets [][]ir.Value
}

var (
	unknownObj = &ir.Global{Name: "<unknown>"}
	unknownSet = []ir.Value{unknownObj}
)

// NewPointsToAA computes points-to sets for every pointer value in f.
func NewPointsToAA(f *ir.Func) *PointsToAA {
	if f == nil || f.IsDecl() {
		return &PointsToAA{}
	}
	pt := &PointsToAA{sets: make([][]ir.Value, f.NumIDs())}
	// Iterate to a fixed point; the lattice is small (sets only grow). An
	// instruction's additions are gathered before its set is touched, so an
	// operand not yet visited — the instruction itself included — still reads
	// as unknown.
	var add []ir.Value
	for changed := true; changed; {
		changed = false
		f.ForEachInstr(func(in *ir.Instr) {
			if !in.Typ.IsPtr() {
				return
			}
			var one [1]ir.Value
			add = add[:0]
			switch {
			case in.Op == ir.OpAlloca, in.Op == ir.OpCall && in.Callee != nil && ir.IsAllocFn(in.Callee.Name):
				add = append(add, in)
			case in.Op == ir.OpGEP:
				add = append(add, pt.objectsOf(in.Args[0], &one)...)
			case in.Op == ir.OpPhi, in.Op == ir.OpSelect:
				args := in.Args
				if in.Op == ir.OpSelect {
					args = in.Args[1:]
				}
				for _, a := range args {
					add = append(add, pt.objectsOf(a, &one)...)
				}
			default: // other calls, loads, inttoptr: anything else that makes a pointer
				add = append(add, unknownObj)
			}
			s := pt.sets[in.ID]
			if s == nil {
				s = []ir.Value{}
			}
			// Sets are a handful of objects; the membership test is a scan.
			for _, o := range add {
				if !slices.Contains(s, o) {
					s = append(s, o)
					changed = true
				}
			}
			pt.sets[in.ID] = s
		})
	}
	return pt
}

// objectsOf returns the abstract objects v may point to; one is the caller's
// room for the set of a global, which is itself.
func (pt *PointsToAA) objectsOf(v ir.Value, one *[1]ir.Value) []ir.Value {
	switch x := v.(type) {
	case *ir.Global:
		one[0] = x
		return one[:]
	case *ir.Const:
		return nil // null points to nothing
	case *ir.Instr:
		if s := at(pt.sets, x.ID); s != nil {
			return s
		}
	}
	return unknownSet
}

// Name implements AliasAnalysis.
func (pt *PointsToAA) Name() string { return "points-to" }

// Alias implements AliasAnalysis: disjoint known points-to sets (neither
// containing the unknown object) cannot alias.
func (pt *PointsToAA) Alias(a ir.Value, asz int64, b ir.Value, bsz int64) AliasResult {
	var oneA, oneB [1]ir.Value
	sa, sb := pt.objectsOf(a, &oneA), pt.objectsOf(b, &oneB)
	if len(sa) == 0 || len(sb) == 0 {
		return NoAlias // null-derived pointer
	}
	if slices.Contains(sa, ir.Value(unknownObj)) {
		return MayAlias
	}
	for _, o := range sb {
		if o == unknownObj || slices.Contains(sa, o) {
			return MayAlias
		}
	}
	return NoAlias
}
