//go:build !caratdebug

package passes

// debugVerify gates the per-pass ir.VerifyFunc in PassManager.runFunc. Off in
// this build: Run verifies the module on entry and on exit, which is what
// keeps a malformed one from being signed; a pass that broke a function is
// caught at the exit check, unnamed. Build with -tags caratdebug (`make
// debugtest`) to have every pass checked and named.
const debugVerify = false
