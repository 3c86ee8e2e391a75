//go:build caratdebug

package passes

import (
	"strings"
	"testing"

	"carat/internal/ir"
)

// TestDebugBuildNamesCorruptingPass is the caratdebug half of
// TestPipelineVerifiesAtExit: every function is verified after every pass, so
// the error says which pass left it malformed, not merely that one did.
func TestDebugBuildNamesCorruptingPass(t *testing.T) {
	pl := &PassManager{Passes: []Pass{&GuardInject{}, corruptPass, &DCE{}}}
	err := pl.Run(ir.MustParse(loopSrc))
	if err == nil || !strings.Contains(err.Error(), "after corrupt") {
		t.Errorf("Run = %v, want an error naming the pass (after corrupt)", err)
	}
}
