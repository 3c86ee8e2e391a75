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
	Int   int64   // value when Typ is integer or pointer
	Float float64 // value when Typ is f64
}

// ConstInt returns an integer constant of type t.
func ConstInt(t *Type, v int64) *Const {
	if !t.IsInt() {
		panic("ir: ConstInt with non-integer type")
	}
	return &Const{Typ: t, Int: v}
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
