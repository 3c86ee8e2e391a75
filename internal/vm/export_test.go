package vm

import "fmt"

// LoweringSummary lowers every defined function of p the way a first call
// would and renders what the lowering decided, one line per function:
// register-file size, pointer slots, the constant pool as the module alone
// determines it, the relocs, the block count and the phi scratch width.
// Exported to the external test package only (lowering_test.go), whose
// inputs come from packages that import vm.
func LoweringSummary(p *Program) []string {
	var out []string
	for _, f := range p.mod.Funcs {
		if f.IsDecl() {
			continue
		}
		l := buildLayout(f)
		cf := compileClosure(l, p.predecode(l))
		relocs := make([]string, len(cf.relocs))
		for i, r := range cf.relocs {
			kind := "g"
			if r.src.kind == pkFunc {
				kind = "f"
			}
			relocs[i] = fmt.Sprintf("%d:%s%d", r.pool, kind, r.src.idx)
		}
		out = append(out, fmt.Sprintf("@%s nSlots=%d ptrSlots=%v consts=%v relocs=%v blocks=%d maxPhis=%d",
			f.Name, l.nSlots, l.ptrSlots, cf.consts, relocs, len(cf.blocks), cf.maxPhis))
	}
	return out
}

// AccessShapes counts the access steps first-call lowering compiles for p's
// defined functions, by shape: [guarded][GEP-fused]. compileBlock counts
// them where it emits the step, so a pass that stops putting a guard or a GEP
// directly in front of its access, or a lowering change that stops
// recognising or fusing one, moves a count.
func AccessShapes(p *Program) (n [2][2]int) {
	for _, f := range p.mod.Funcs {
		if f.IsDecl() {
			continue
		}
		l := buildLayout(f)
		for g, row := range compileClosure(l, p.predecode(l)).shapes {
			for fused, c := range row {
				n[g][fused] += int(c)
			}
		}
	}
	return n
}
