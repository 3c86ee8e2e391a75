// Package core is the public facade over the CARAT system: it wires the
// compiler pipeline (internal/passes), binary signing (internal/signing),
// the simulated kernel/runtime (internal/kernel, internal/runtime), and
// the execution substrate (internal/vm) into the workflow of Figure 1(b):
//
//	source IR → transform + optimize → sign → kernel verifies → load → run
package core

import (
	"crypto/rand"
	"fmt"

	"carat/internal/ir"
	"carat/internal/obs"
	"carat/internal/passes"
	"carat/internal/signing"
	"carat/internal/vm"
)

// Compiler is a CARAT toolchain instance: a pass pipeline level plus a
// signing identity.
type Compiler struct {
	Level     passes.Level
	Toolchain *signing.Toolchain
	// Workers bounds how many functions are compiled concurrently; 0 means
	// GOMAXPROCS, 1 compiles sequentially. Output is byte-identical across
	// worker counts.
	Workers int
	// Obs, when non-nil, receives the carat.passes.* compile-time metrics.
	Obs *obs.Registry
}

// NewCompiler creates a compiler at the given instrumentation level with a
// fresh toolchain identity.
func NewCompiler(level passes.Level) (*Compiler, error) {
	tc, err := signing.NewToolchain("carat-cc", rand.Reader)
	if err != nil {
		return nil, err
	}
	return &Compiler{Level: level, Toolchain: tc}, nil
}

// Result is a compiled, signed binary plus compile statistics.
type Result struct {
	Binary *signing.SignedModule
	Stats  passes.Stats
}

// Compile runs the pipeline over m (mutating it) and signs the output.
func (c *Compiler) Compile(m *ir.Module) (*Result, error) {
	pl := passes.Build(c.Level)
	pl.Workers = c.Workers
	pl.Obs = c.Obs
	if err := pl.Run(m); err != nil {
		return nil, fmt.Errorf("core: compile: %w", err)
	}
	return &Result{Binary: c.Toolchain.Sign(m), Stats: pl.Stats}, nil
}

// System is the OS side: a trust store of toolchain keys plus the machine
// configuration used to load processes.
type System struct {
	Trust  *signing.TrustStore
	Config vm.Config
}

// NewSystem returns a system trusting the given compiler.
func NewSystem(c *Compiler, cfg vm.Config) *System {
	ts := signing.NewTrustStore()
	ts.Trust(c.Toolchain.Name, c.Toolchain.Public())
	return &System{Trust: ts, Config: cfg}
}

// Load validates the binary's signature against the trust store (the
// load-time check of §2.2) and places the process into a fresh machine.
func (s *System) Load(r *Result) (*vm.VM, error) {
	if err := s.Trust.Verify(r.Binary); err != nil {
		return nil, fmt.Errorf("core: load rejected: %w", err)
	}
	return vm.Load(r.Binary.Module, s.Config)
}

// Run is Load followed by execution to completion.
func (s *System) Run(r *Result) (*vm.VM, int64, error) {
	v, err := s.Load(r)
	if err != nil {
		return nil, 0, err
	}
	ret, err := v.Run()
	return v, ret, err
}
