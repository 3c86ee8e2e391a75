package ir

// Value is anything that can appear as an instruction operand: constants,
// globals, function parameters, functions, and instructions themselves.
type Value interface {
	// Type returns the type of the value.
	Type() *Type
	// Ref returns the value's operand syntax, e.g. "%3", "@g", "42".
	Ref() string
}

// Const is a compile-time constant of integer, float, or pointer type.
// Pointer constants are restricted to null (Int == 0) and the special
// non-canonical poison addresses used by the kernel to make pages
// unavailable.
type Const struct {
	Typ   *Type
	Int   int64   // value when Typ is pointer, or integer in the register encoding
	Float float64 // value when Typ is f64
}

// ConstInt returns an integer constant of type t holding v in the register
// encoding (Narrow), so `i8 255` and `i8 -1` are one constant and every
// reader takes Int as it is. For a small value of an interned integer type
// (I1 … I64) it is a shared instance: nothing mutates a *Const once built,
// so a constant is a value and sharing one is safe.
func ConstInt(t *Type, v int64) *Const {
	if !t.IsInt() {
		panic("ir: ConstInt with non-integer type")
	}
	v = int64(Narrow(uint64(v), t.Bits))
	if v >= smallIntMin && v <= smallIntMax {
		for i, it := range smallIntTypes {
			if t == it {
				return &smallInts[i][v-smallIntMin]
			}
		}
	}
	return &Const{Typ: t, Int: v}
}

// smallInts[i][v-smallIntMin] is the shared ConstInt(smallIntTypes[i], v).
const smallIntMin, smallIntMax = -16, 255

var (
	smallIntTypes = [...]*Type{I1, I8, I16, I32, I64}
	smallInts     [len(smallIntTypes)][smallIntMax - smallIntMin + 1]Const
)

func init() {
	for i, t := range smallIntTypes {
		for j := range smallInts[i] {
			smallInts[i][j] = Const{Typ: t, Int: int64(j) + smallIntMin}
		}
	}
}

// ConstFloat returns an f64 constant.
func ConstFloat(v float64) *Const { return &Const{Typ: F64, Float: v} }

// ConstNull returns the null pointer constant.
func ConstNull() *Const { return &Const{Typ: Ptr} }

// Type implements Value.
func (c *Const) Type() *Type { return c.Typ }

// Ref implements Value; AppendRef (encode.go) defines the syntax.
func (c *Const) Ref() string { return string(c.AppendRef(nil)) }

// Global is a module-level variable (the IR analogue of data/bss). Its
// value, when used as an operand, is the address of its storage, so the
// operand type is always ptr.
type Global struct {
	Name    string
	Elem    *Type   // type of the pointed-to storage
	Init    []byte  // initial contents; nil means zero-fill (bss)
	Mutable bool    // false for constant data
	PtrInit []int64 // byte offsets within the storage that hold pointers
}

// Type implements Value: a global evaluates to its address.
func (g *Global) Type() *Type { return Ptr }

// Ref implements Value.
func (g *Global) Ref() string { return "@" + g.Name }

// Size returns the size in bytes of the global's storage.
func (g *Global) Size() int64 { return g.Elem.Size() }

// Param is a formal parameter of a function.
type Param struct {
	Name string
	Typ  *Type
	Idx  int
}

// Type implements Value.
func (p *Param) Type() *Type { return p.Typ }

// Ref implements Value.
func (p *Param) Ref() string { return "%" + p.Name }
