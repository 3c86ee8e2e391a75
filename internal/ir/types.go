// Package ir defines the intermediate representation used by the CARAT
// compiler. It is a small, typed, SSA-form IR in the style of LLVM bitcode:
// modules contain globals and functions, functions contain basic blocks, and
// blocks contain instructions ending in a single terminator.
//
// Pointers are opaque (as in modern LLVM): there is a single pointer type,
// and address arithmetic is expressed with GEP instructions that carry an
// element type. Memory is byte-addressable; the VM in internal/vm executes
// this IR directly against simulated physical memory.
package ir

// TypeKind discriminates the members of the IR type system.
type TypeKind int

// The type kinds.
const (
	VoidKind TypeKind = iota
	IntKind
	FloatKind
	PtrKind
	ArrayKind
	StructKind
	FuncKind
)

// Type describes an IR type. Types are structural: two types with the same
// shape are interchangeable. The primitive types are interned singletons
// (Void, I1 ... I64, F64, Ptr); aggregate types are built with ArrayOf,
// StructOf, and FuncOf.
type Type struct {
	Kind   TypeKind
	Bits   int     // IntKind: width in bits (1, 8, 16, 32, 64)
	Elem   *Type   // ArrayKind: element type
	Len    int     // ArrayKind: element count
	Fields []*Type // StructKind: field types
	Params []*Type // FuncKind: parameter types
	Ret    *Type   // FuncKind: return type
	Vararg bool    // FuncKind: accepts trailing arguments
}

// Interned primitive types.
var (
	Void = &Type{Kind: VoidKind}
	I1   = &Type{Kind: IntKind, Bits: 1}
	I8   = &Type{Kind: IntKind, Bits: 8}
	I16  = &Type{Kind: IntKind, Bits: 16}
	I32  = &Type{Kind: IntKind, Bits: 32}
	I64  = &Type{Kind: IntKind, Bits: 64}
	F64  = &Type{Kind: FloatKind}
	Ptr  = &Type{Kind: PtrKind}
)

// ArrayOf returns the type of an array of n elements of type elem.
func ArrayOf(elem *Type, n int) *Type {
	if n < 0 {
		panic("ir: negative array length")
	}
	return &Type{Kind: ArrayKind, Elem: elem, Len: n}
}

// StructOf returns a struct type with the given field types.
func StructOf(fields ...*Type) *Type {
	return &Type{Kind: StructKind, Fields: fields}
}

// FuncOf returns a function type with the given return and parameter types.
func FuncOf(ret *Type, params ...*Type) *Type {
	return &Type{Kind: FuncKind, Ret: ret, Params: params}
}

// IsInt reports whether t is an integer type.
func (t *Type) IsInt() bool { return t.Kind == IntKind }

// IsFloat reports whether t is the floating-point type.
func (t *Type) IsFloat() bool { return t.Kind == FloatKind }

// IsPtr reports whether t is the pointer type.
func (t *Type) IsPtr() bool { return t.Kind == PtrKind }

// Size returns the size of a value of type t in bytes as laid out in the
// simulated machine. i1 and i8 occupy one byte; all scalars are stored at
// their natural size with no padding inside aggregates (packed layout).
func (t *Type) Size() int64 {
	switch t.Kind {
	case VoidKind:
		return 0
	case IntKind:
		if t.Bits == 1 {
			return 1
		}
		return int64(t.Bits / 8)
	case FloatKind:
		return 8
	case PtrKind:
		return 8
	case ArrayKind:
		return int64(t.Len) * t.Elem.Size()
	case StructKind:
		var n int64
		for _, f := range t.Fields {
			n += f.Size()
		}
		return n
	case FuncKind:
		return 8 // function "values" are code addresses
	}
	panic("ir: unknown type kind")
}

// FieldOffset returns the byte offset of field i within struct type t.
func (t *Type) FieldOffset(i int) int64 {
	if t.Kind != StructKind {
		panic("ir: FieldOffset on non-struct")
	}
	var off int64
	for j := 0; j < i; j++ {
		off += t.Fields[j].Size()
	}
	return off
}

// Equal reports whether t and u are structurally identical types.
func (t *Type) Equal(u *Type) bool {
	if t == u {
		return true
	}
	if t == nil || u == nil || t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case VoidKind, FloatKind, PtrKind:
		return true
	case IntKind:
		return t.Bits == u.Bits
	case ArrayKind:
		return t.Len == u.Len && t.Elem.Equal(u.Elem)
	case StructKind:
		if len(t.Fields) != len(u.Fields) {
			return false
		}
		for i := range t.Fields {
			if !t.Fields[i].Equal(u.Fields[i]) {
				return false
			}
		}
		return true
	case FuncKind:
		if len(t.Params) != len(u.Params) || t.Vararg != u.Vararg || !t.Ret.Equal(u.Ret) {
			return false
		}
		for i := range t.Params {
			if !t.Params[i].Equal(u.Params[i]) {
				return false
			}
		}
		return true
	}
	return false
}
