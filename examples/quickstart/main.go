// Quickstart: compile a small program with the full CARAT pipeline, let
// the (simulated) kernel verify its signature, and run it under physical
// addressing with guards and tracking live.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"carat/internal/core"
	"carat/internal/ir"
	"carat/internal/passes"
	"carat/internal/vm"
)

// A tiny C-like program in CARAT's textual IR: allocate a buffer on the
// heap, fill it, sum it, print the sum.
const program = `module "quickstart"
func @malloc(%sz: i64) -> ptr
func @free(%p: ptr) -> void
func @print_i64(%x: i64) -> void

func @main() -> i64 {
entry:
  %buf = call ptr @malloc(i64 800)
  br ^fill
fill:
  %i = phi i64 [0, ^entry], [%i1, ^fill]
  %p = gep i64, %buf, %i
  store i64 %i, %p
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 100
  condbr %c, ^fill, ^sum
sum:
  br ^loop
loop:
  %j = phi i64 [0, ^sum], [%j1, ^loop]
  %acc = phi i64 [0, ^sum], [%acc1, ^loop]
  %q = gep i64, %buf, %j
  %v = load i64, %q
  %acc1 = add i64 %acc, %v
  %j1 = add i64 %j, 1
  %d = icmp slt i64 %j1, 100
  condbr %d, ^loop, ^done
done:
  call void @print_i64(i64 %acc1)
  call void @free(ptr %buf)
  ret i64 0
}`

func main() {
	m, err := ir.Parse(program)
	if err != nil {
		log.Fatal(err)
	}

	// Compile with the full pipeline: guard injection + the three CARAT
	// optimizations + allocation/escape tracking, then sign.
	compiler, err := core.NewCompiler(passes.LevelTracking)
	if err != nil {
		log.Fatal(err)
	}
	res, err := compiler.Compile(m)
	if err != nil {
		log.Fatal(err)
	}
	s := res.Stats
	fmt.Printf("compiled: %d guards injected, %d hoisted, %d merged, %d removed, %d remain\n",
		s.GuardsInjected, s.Hoisted, s.Merged, s.Removed, s.GuardsRemaining)

	// The "kernel" verifies the signature before loading (§2.2).
	cfg := vm.DefaultConfig()
	cfg.MemBytes = 1 << 24
	cfg.HeapBytes = 1 << 20
	sys := core.NewSystem(compiler, cfg)
	v, ret, err := sys.Run(res)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("program output: %v (expected sum 0..99 = 4950)\n", v.Output)
	fmt.Printf("exit code: %d\n", ret)
	fmt.Printf("executed %d instructions in %d modeled cycles; %d guard checks\n",
		v.Instrs, v.Cycles, v.GuardChecks)
	rt := &v.Runtime().Stats
	fmt.Printf("runtime tracked %d allocations, %d frees, %d escapes\n",
		rt.Allocs.Get(), rt.Frees.Get(), rt.EscapeEvents.Get())
}
