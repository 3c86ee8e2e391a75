package core

import (
	"strings"
	"testing"

	"carat/internal/ir"
	"carat/internal/passes"
	"carat/internal/vm"
)

func smallProgram() *ir.Module {
	return ir.MustParse(`module "p"
global @g : [8 x i64]
func @main() -> i64 {
entry:
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %p = gep i64, @g, %i
  store i64 %i, %p
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 8
  condbr %c, ^loop, ^out
out:
  %q = gep i64, @g, 7
  %v = load i64, %q
  ret i64 %v
}`)
}

func cfg() vm.Config {
	c := vm.DefaultConfig()
	c.MemBytes = 1 << 22
	c.HeapBytes = 1 << 18
	return c
}

func TestEndToEnd(t *testing.T) {
	c, err := NewCompiler(passes.LevelTracking)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Compile(smallProgram())
	if err != nil {
		t.Fatal(err)
	}
	v, ret, err := NewSystem(c, cfg()).Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 7 {
		t.Errorf("result = %d, want 7", ret)
	}
	if v.GuardChecks == 0 {
		t.Error("no guard checks in tracked build")
	}
}

func TestUntrustedBinaryRejected(t *testing.T) {
	good, err := NewCompiler(passes.LevelGuardsOnly)
	if err != nil {
		t.Fatal(err)
	}
	evil, err := NewCompiler(passes.LevelGuardsOnly)
	if err != nil {
		t.Fatal(err)
	}
	r, err := evil.Compile(smallProgram())
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(good, cfg()) // trusts only `good`
	if _, err := sys.Load(r); err == nil {
		t.Fatal("binary from untrusted toolchain was loaded")
	} else if !strings.Contains(err.Error(), "rejected") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestTamperedBinaryRejected(t *testing.T) {
	c, err := NewCompiler(passes.LevelGuardsOnly)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Compile(smallProgram())
	if err != nil {
		t.Fatal(err)
	}
	// Strip the guards post-signing: a malicious loader bypass attempt.
	for _, f := range r.Binary.Module.Funcs {
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				if b.Instrs[i].Op == ir.OpGuard {
					b.Remove(b.Instrs[i])
					i--
				}
			}
		}
	}
	sys := NewSystem(c, cfg())
	if _, err := sys.Load(r); err == nil {
		t.Fatal("tampered (guard-stripped) binary was loaded")
	}
}

func TestCompileStatsExposed(t *testing.T) {
	c, err := NewCompiler(passes.LevelGuardsOpt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Compile(smallProgram())
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.GuardsInjected == 0 {
		t.Error("no guard statistics recorded")
	}
}
