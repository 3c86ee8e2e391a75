//go:build caratdebug

package passes

import (
	"strings"
	"testing"

	"carat/internal/analysis"
	"carat/internal/ir"
)

// TestDebugBuildNamesCorruptingPass is the caratdebug half of
// TestPipelineVerifiesAtExit: every function is verified after every pass, so
// the error says which pass left it malformed, not merely that one did.
func TestDebugBuildNamesCorruptingPass(t *testing.T) {
	// unnumberPass breaks the dense numbering instead of a type rule: it puts
	// a guard into a block around Block.Edit, so the guard has no ID.
	unnumberPass := funcPassStub{name: "unnumber", fn: func(f *ir.Func, _ *Stats, _ *analysis.FuncAnalyses) error {
		b := f.Blocks[0]
		g := &ir.Instr{Op: ir.OpGuard, Typ: ir.Void, Block: b, Args: []ir.Value{ir.ConstNull(), ir.ConstInt(ir.I64, 8)}}
		b.Instrs = append([]*ir.Instr{g}, b.Instrs...)
		return nil
	}}
	for _, c := range []struct {
		pass Pass
		want string
	}{
		{corruptPass, "after corrupt: ir: @f/^exit: ret i1 1: ret type mismatch"},
		{unnumberPass, "after unnumber: ir: @f/^entry: guard load null, 8: ID 0, want 1 to"},
	} {
		pl := &PassManager{Passes: []Pass{&GuardInject{}, c.pass, &DCE{}}}
		err := pl.Run(ir.MustParse(loopSrc))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run = %v, want an error naming the pass (%s)", err, c.want)
		}
	}
}
