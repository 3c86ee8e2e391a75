package analysis

import "carat/internal/ir"

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

// ObjectSize returns the size in bytes of an identified object, or -1 when
// unknown (e.g. malloc with a non-constant size).
func ObjectSize(obj ir.Value) int64 {
	switch x := obj.(type) {
	case *ir.Global:
		return x.Size()
	case *ir.Instr:
		switch x.Op {
		case ir.OpAlloca:
			if c, ok := x.Args[0].(*ir.Const); ok {
				return c.Int * x.Elem.Size()
			}
		case ir.OpCall:
			if x.Callee.Name == ir.FnMalloc {
				if c, ok := x.Args[0].(*ir.Const); ok {
					return c.Int
				}
			}
			if x.Callee.Name == ir.FnCalloc && len(x.Args) == 2 {
				n, ok1 := x.Args[0].(*ir.Const)
				s, ok2 := x.Args[1].(*ir.Const)
				if ok1 && ok2 {
					return n.Int * s.Int
				}
			}
		}
	}
	return -1
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
	sets map[ir.Value]map[ir.Value]bool // nil set means "unknown"
}

var unknownObj = &ir.Global{Name: "<unknown>"}

// NewPointsToAA computes points-to sets for every pointer value in f.
func NewPointsToAA(f *ir.Func) *PointsToAA {
	if f == nil || f.IsDecl() {
		return &PointsToAA{}
	}
	pt := &PointsToAA{sets: make(map[ir.Value]map[ir.Value]bool, f.NumInstrs()/4)}
	// Iterate to a fixed point; the lattice is small (sets only grow).
	for changed := true; changed; {
		changed = false
		f.ForEachInstr(func(in *ir.Instr) {
			if !in.Typ.IsPtr() {
				return
			}
			var add []ir.Value
			switch in.Op {
			case ir.OpAlloca:
				add = []ir.Value{in}
			case ir.OpCall:
				if in.Callee != nil && ir.IsAllocFn(in.Callee.Name) {
					add = []ir.Value{in}
				} else {
					add = []ir.Value{unknownObj}
				}
			case ir.OpGEP:
				add = pt.objectsOf(in.Args[0])
			case ir.OpPhi, ir.OpSelect:
				args := in.Args
				if in.Op == ir.OpSelect {
					args = in.Args[1:]
				}
				for _, a := range args {
					add = append(add, pt.objectsOf(a)...)
				}
			case ir.OpLoad, ir.OpIntToPtr:
				add = []ir.Value{unknownObj}
			default:
				add = []ir.Value{unknownObj}
			}
			s := pt.sets[in]
			if s == nil {
				s = make(map[ir.Value]bool)
				pt.sets[in] = s
			}
			for _, o := range add {
				if !s[o] {
					s[o] = true
					changed = true
				}
			}
		})
	}
	return pt
}

// objectsOf returns the abstract objects v may point to.
func (pt *PointsToAA) objectsOf(v ir.Value) []ir.Value {
	switch x := v.(type) {
	case *ir.Global:
		return []ir.Value{x}
	case *ir.Const:
		return nil // null points to nothing
	case *ir.Param:
		return []ir.Value{unknownObj}
	case *ir.Instr:
		s := pt.sets[x]
		if s == nil {
			return []ir.Value{unknownObj}
		}
		out := make([]ir.Value, 0, len(s))
		for o := range s {
			out = append(out, o)
		}
		return out
	}
	return []ir.Value{unknownObj}
}

// Name implements AliasAnalysis.
func (pt *PointsToAA) Name() string { return "points-to" }

// Alias implements AliasAnalysis: disjoint known points-to sets (neither
// containing the unknown object) cannot alias.
func (pt *PointsToAA) Alias(a ir.Value, asz int64, b ir.Value, bsz int64) AliasResult {
	sa := pt.objectsOf(a)
	sb := pt.objectsOf(b)
	if len(sa) == 0 || len(sb) == 0 {
		return NoAlias // null-derived pointer
	}
	inA := make(map[ir.Value]bool, len(sa))
	for _, o := range sa {
		if o == unknownObj {
			return MayAlias
		}
		inA[o] = true
	}
	for _, o := range sb {
		if o == unknownObj {
			return MayAlias
		}
		if inA[o] {
			return MayAlias
		}
	}
	return NoAlias
}
