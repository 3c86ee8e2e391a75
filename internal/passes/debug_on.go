//go:build caratdebug

package passes

// debugVerify gates the per-pass ir.VerifyFunc in PassManager.runFunc: a
// function is checked after every pass that ran on it, so the error names
// the pass that left it malformed. This build has it on.
const debugVerify = true
