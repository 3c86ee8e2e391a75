package ir

import (
	"fmt"
	"slices"
)

// Verify checks structural and type well-formedness of the module:
// terminated blocks, operand/def dominance is NOT checked (the VM tolerates
// non-SSA uses produced by simple builders), phi/pred consistency, operand
// type agreement, and callee signature agreement. It is also the one place
// that decides which shapes are executable: scalar-width loads and stores,
// constant in-range struct indices in GEPs, defined opcodes. Every consumer
// downstream of it — the analyses, both VM engines — relies on those rules
// instead of re-checking them. It returns the first problem found, or nil.
func (m *Module) Verify() error {
	names := make(map[string]bool, len(m.Globals)+len(m.Funcs)) // globals and functions share @'s namespace
	for _, g := range m.Globals {
		if names[g.Name] {
			return fmt.Errorf("ir: duplicate global @%s", g.Name)
		}
		names[g.Name] = true
		if g.Elem == nil || g.Elem == Void {
			return fmt.Errorf("ir: global @%s has invalid element type", g.Name)
		}
		if g.Init != nil && int64(len(g.Init)) > g.Elem.Size() {
			return fmt.Errorf("ir: global @%s initializer larger than storage", g.Name)
		}
	}
	for _, f := range m.Funcs {
		if names[f.Name] {
			return fmt.Errorf("ir: duplicate symbol @%s", f.Name)
		}
		names[f.Name] = true
		if sig, ok := runtimeSigs[f.Name]; ok && !f.hasSig(sig) {
			return fmt.Errorf("ir: @%s is a runtime entry point: its signature must be %s", f.Name, sig)
		}
		if err := verifyFunc(f); err != nil {
			return err
		}
	}
	return nil
}

// runtimeSigs is the signature of each runtime entry point. The VM's
// builtins and the tracking pass recognize them by name and index a call's
// operands by position, so a function under one of these names — declared or
// defined — has exactly this shape.
var runtimeSigs = map[string]*Type{
	FnMalloc:      FuncOf(Ptr, I64),
	FnCalloc:      FuncOf(Ptr, I64, I64),
	FnFree:        FuncOf(Void, Ptr),
	FnTrackAlloc:  FuncOf(Void, Ptr, I64),
	FnTrackFree:   FuncOf(Void, Ptr),
	FnTrackEscape: FuncOf(Void, Ptr, Ptr),
	FnPrintI64:    FuncOf(Void, I64),
	FnPrintF64:    FuncOf(Void, F64),
}

// hasSig reports whether f's return and parameter types are sig's.
func (f *Func) hasSig(sig *Type) bool {
	if !f.RetTyp.Equal(sig.Ret) || len(f.Params) != len(sig.Params) {
		return false
	}
	for i, p := range f.Params {
		if !p.Typ.Equal(sig.Params[i]) {
			return false
		}
	}
	return true
}

// VerifyFunc checks a single function's structural well-formedness: the
// per-function subset of Verify. A caratdebug build of the pass manager calls
// it after each pass so a corrupting transformation is caught, and named,
// without taking a module-wide lock; it only reads f (and the signatures of
// its callees).
func VerifyFunc(f *Func) error { return verifyFunc(f) }

// verifyFunc visits each instruction once and allocates only what it reads:
// a mark per instruction ID, and the predecessor sets, which exist for the
// phis' sake and are built when the first phi asks (a function out of the cc
// front end has none).
func verifyFunc(f *Func) error {
	for i, p := range f.Params {
		if p.Idx != i { // the VM puts a parameter in register Idx; only AddFunc numbers them
			return fmt.Errorf("ir: @%s: parameter %d (%%%s) has Idx %d", f.Name, i, p.Name, p.Idx)
		}
	}
	// The dense numbering every per-function table indexes by: a block's Idx
	// is its position, an instruction's ID is in range and its own.
	for i, b := range f.Blocks {
		if b.Idx != i || b.Fn != f {
			return fmt.Errorf("ir: @%s/^%s: block %d has Idx %d", f.Name, b.Name, i, b.Idx)
		}
	}
	seen := make([]bool, f.NumIDs())
	var preds [][]*Block
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil {
			return fmt.Errorf("ir: @%s/^%s: block not terminated", f.Name, b.Name)
		}
		for i, in := range b.Instrs {
			if id := int(in.ID); id <= 0 || id >= len(seen) {
				return fmt.Errorf("ir: @%s/^%s: %s: ID %d, want 1 to %d (instructions enter a block through Append, Insert or Edit)",
					f.Name, b.Name, in, id, len(seen)-1)
			} else if seen[id] {
				return fmt.Errorf("ir: @%s/^%s: %s: ID %d is another instruction's too", f.Name, b.Name, in, id)
			}
			seen[in.ID] = true
			if in.IsTerminator() && i != len(b.Instrs)-1 {
				return fmt.Errorf("ir: @%s/^%s: terminator %s not last", f.Name, b.Name, in.Op)
			}
			if in.Op == OpPhi && i > 0 && b.Instrs[i-1].Op != OpPhi {
				return fmt.Errorf("ir: @%s/^%s: phi after non-phi", f.Name, b.Name)
			}
			if in.Op == OpPhi && b == f.Blocks[0] {
				// Control first enters along no edge, so there is no incoming
				// to select (LLVM's rule too).
				return fmt.Errorf("ir: @%s/^%s: phi in the entry block", f.Name, b.Name)
			}
			var blockPreds []*Block
			if in.Op == OpPhi {
				if preds == nil {
					preds = predecessors(f)
				}
				blockPreds = preds[b.Idx]
			}
			if err := verifyInstr(f, b, in, blockPreds); err != nil {
				return err
			}
		}
	}
	return nil
}

// scalarWidth reports whether n bytes is a width the machine loads and
// stores in one access.
func scalarWidth(n int64) bool { return n == 1 || n == 2 || n == 4 || n == 8 }

// owns reports whether b is one of f's blocks.
func (f *Func) owns(b *Block) bool {
	return b.Fn == f && uint(b.Idx) < uint(len(f.Blocks)) && f.Blocks[b.Idx] == b
}

// predecessors computes the predecessor sets of every block in f, indexed by
// Block.Idx. An edge to a block of another function (verifyInstr reports it
// when it gets there) is no edge of f's.
func predecessors(f *Func) [][]*Block {
	preds := make([][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if f.owns(s) {
				preds[s.Idx] = append(preds[s.Idx], b)
			}
		}
	}
	return preds
}

// verifyInstr checks one instruction of block b; preds is b's predecessor
// set, which only a phi reads.
func verifyInstr(f *Func, b *Block, in *Instr, preds []*Block) error {
	where := func() string { return fmt.Sprintf("ir: @%s/^%s: %s", f.Name, b.Name, in) }
	for _, a := range in.Args {
		if a == nil {
			return fmt.Errorf("%s: nil operand", where())
		}
		if _, isPH := a.(placeholder); isPH {
			return fmt.Errorf("%s: unresolved operand", where())
		}
		if p, isParam := a.(*Param); isParam && (uint(p.Idx) >= uint(len(f.Params)) || f.Params[p.Idx] != p) {
			return fmt.Errorf("%s: operand %%%s is not a parameter of @%s", where(), p.Name, f.Name)
		}
	}
	for _, s := range in.Succs {
		if !f.owns(s) {
			return fmt.Errorf("%s: successor ^%s not in function", where(), s.Name)
		}
	}
	if in.Op <= OpInvalid || in.Op > OpGuard {
		return fmt.Errorf("%s: undefined opcode", where())
	}
	switch {
	case in.Op.IsBinary():
		if len(in.Args) != 2 {
			return fmt.Errorf("%s: want 2 operands", where())
		}
		wantFloat := in.Op >= OpFAdd && in.Op <= OpFDiv
		for _, a := range in.Args {
			if wantFloat && !a.Type().IsFloat() {
				return fmt.Errorf("%s: float op with non-float operand", where())
			}
			if !wantFloat && !a.Type().IsInt() {
				return fmt.Errorf("%s: int op with non-int operand", where())
			}
		}
		if !in.Args[0].Type().Equal(in.Args[1].Type()) {
			return fmt.Errorf("%s: operand type mismatch", where())
		}
	case in.Op == OpICmp:
		if !in.Args[0].Type().Equal(in.Args[1].Type()) {
			return fmt.Errorf("%s: icmp operand mismatch", where())
		}
		if !in.Args[0].Type().IsInt() && !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("%s: icmp on non-integer", where())
		}
	case in.Op == OpFCmp:
		if !in.Args[0].Type().IsFloat() || !in.Args[1].Type().IsFloat() {
			return fmt.Errorf("%s: fcmp on non-float", where())
		}
	case in.Op == OpLoad:
		if !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("%s: load from non-pointer", where())
		}
		if n := in.Elem.Size(); !scalarWidth(n) {
			return fmt.Errorf("%s: load of %d bytes (access width must be 1, 2, 4 or 8)", where(), n)
		}
	case in.Op == OpStore:
		if !in.Args[1].Type().IsPtr() {
			return fmt.Errorf("%s: store to non-pointer", where())
		}
		if n := in.Args[0].Type().Size(); !scalarWidth(n) {
			return fmt.Errorf("%s: store of %d bytes (access width must be 1, 2, 4 or 8)", where(), n)
		}
	case in.Op == OpGEP:
		if !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("%s: gep base not a pointer", where())
		}
		// The type walk every consumer repeats: the first index scales Elem,
		// later ones descend into it. A struct level is only walkable by a
		// constant that names one of its fields (LLVM's rule too).
		typ := in.Elem
		for i, idx := range in.Args[1:] {
			if !idx.Type().IsInt() {
				return fmt.Errorf("%s: gep index not an integer", where())
			}
			if i == 0 {
				continue
			}
			switch typ.Kind {
			case ArrayKind:
				typ = typ.Elem
			case StructKind:
				c, isConst := idx.(*Const)
				if !isConst || c.Int < 0 || c.Int >= int64(len(typ.Fields)) {
					return fmt.Errorf("%s: gep index %d into a %d-field struct must be a constant in range",
						where(), i, len(typ.Fields))
				}
				typ = typ.Fields[c.Int]
			}
		}
	case in.Op == OpPhi:
		if len(in.Args) != len(in.Preds) {
			return fmt.Errorf("%s: phi args/preds mismatch", where())
		}
		if len(in.Args) != len(preds) {
			return fmt.Errorf("%s: phi has %d incoming, block has %d preds", where(), len(in.Args), len(preds))
		}
		for _, pb := range in.Preds {
			if !slices.Contains(preds, pb) {
				return fmt.Errorf("%s: phi incoming ^%s is not a predecessor", where(), pb.Name)
			}
		}
		// And the other way round, so every edge into b carries a value: the
		// counts agree, but one predecessor may have been listed twice.
		for _, w := range preds {
			if !slices.Contains(in.Preds, w) {
				return fmt.Errorf("%s: phi has no incoming for predecessor ^%s", where(), w.Name)
			}
		}
		for _, a := range in.Args {
			if !a.Type().Equal(in.Typ) {
				return fmt.Errorf("%s: phi incoming type mismatch", where())
			}
		}
	case in.Op == OpCall:
		if in.Callee == nil {
			return fmt.Errorf("%s: call without callee", where())
		}
		if len(in.Args) != len(in.Callee.Params) {
			return fmt.Errorf("%s: call to @%s with %d args, want %d",
				where(), in.Callee.Name, len(in.Args), len(in.Callee.Params))
		}
		for i, a := range in.Args {
			if !a.Type().Equal(in.Callee.Params[i].Typ) {
				return fmt.Errorf("%s: arg %d type mismatch calling @%s", where(), i, in.Callee.Name)
			}
		}
		if !in.Typ.Equal(in.Callee.RetTyp) {
			return fmt.Errorf("%s: result type does not match @%s return", where(), in.Callee.Name)
		}
	case in.Op == OpCondBr:
		if !in.Args[0].Type().Equal(I1) {
			return fmt.Errorf("%s: condbr condition not i1", where())
		}
		if len(in.Succs) != 2 {
			return fmt.Errorf("%s: condbr needs 2 successors", where())
		}
	case in.Op == OpBr:
		if len(in.Succs) != 1 {
			return fmt.Errorf("%s: br needs 1 successor", where())
		}
	case in.Op == OpRet:
		if f.RetTyp == Void {
			if len(in.Args) != 0 {
				return fmt.Errorf("%s: ret with value in void function", where())
			}
		} else {
			if len(in.Args) != 1 || !in.Args[0].Type().Equal(f.RetTyp) {
				return fmt.Errorf("%s: ret type mismatch", where())
			}
		}
	case in.Op == OpGuard:
		if len(in.Args) != 2 {
			return fmt.Errorf("%s: guard wants (addr, size)", where())
		}
		if !in.Args[0].Type().IsPtr() {
			return fmt.Errorf("%s: guard address not a pointer", where())
		}
		if !in.Args[1].Type().IsInt() {
			return fmt.Errorf("%s: guard size not an integer", where())
		}
	case in.Op == OpSelect:
		if !in.Args[0].Type().Equal(I1) {
			return fmt.Errorf("%s: select condition not i1", where())
		}
		if !in.Args[1].Type().Equal(in.Args[2].Type()) {
			return fmt.Errorf("%s: select arm type mismatch", where())
		}
	}
	return nil
}
