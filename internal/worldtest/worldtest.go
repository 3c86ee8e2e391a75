// Package worldtest is the shared conformance suite for implementations of
// runtime.World — the stop-the-world interface every move, swap and
// protection flip stops the guest through, once. Both the runtime's test fake
// and the VM's real world must satisfy the same contract: stops and
// resumes pair up, patches through a stop's RegSet handles read back, and
// nested stops are rejected loudly. The suite lives in its own package so
// the runtime's external tests and the VM's internal tests can drive the
// identical assertions without an import cycle.
package worldtest

import (
	"testing"

	"carat/internal/runtime"
)

// FakeRegs is a mutable register file for the fake world.
type FakeRegs struct{ Vals []uint64 }

// Regs implements runtime.RegSet.
func (f *FakeRegs) Regs() []uint64 { return append([]uint64(nil), f.Vals...) }

// SetReg implements runtime.RegSet.
func (f *FakeRegs) SetReg(i int, v uint64) { f.Vals[i] = v }

// Fake is an in-memory World for runtime-level tests: it hands out
// stable handles to its register files and counts every stop and resume so
// tests can assert on the pause structure of an operation.
type Fake struct {
	RegSets []*FakeRegs

	Stops, Resumes int // StopTheWorld / ResumeTheWorld
	stopped        bool
}

// NewFake builds a fake world over the given register files.
func NewFake(regs ...*FakeRegs) *Fake { return &Fake{RegSets: regs} }

// StopTheWorld implements runtime.World.
func (f *Fake) StopTheWorld() []runtime.RegSet {
	if f.stopped {
		panic("worldtest: nested world stop")
	}
	f.stopped = true
	f.Stops++
	out := make([]runtime.RegSet, len(f.RegSets))
	for i, r := range f.RegSets {
		out[i] = r
	}
	return out
}

// ResumeTheWorld implements runtime.World.
func (f *Fake) ResumeTheWorld() { f.stopped = false; f.Resumes++ }

// Conformance drives w through the World contract. The world must be
// running (not stopped) on entry and is left running on return. Register-
// mutation assertions only engage for handles that expose registers; a
// world with no live threads still has its stop/resume structure checked.
func Conformance(t *testing.T, name string, w runtime.World) {
	t.Helper()

	regs := w.StopTheWorld()

	// Nested stops are protocol bugs and must panic.
	mustPanic(t, name+": StopTheWorld while stopped", func() { w.StopTheWorld() })

	// A patch through a handle reads back through the same handle: this is
	// how a move rewrites a stopped thread's pointer registers.
	for i, rs := range regs {
		vals := rs.Regs()
		if len(vals) == 0 {
			continue
		}
		old := vals[0]
		rs.SetReg(0, old+0x10_0000)
		if got := rs.Regs()[0]; got != old+0x10_0000 {
			t.Errorf("%s: regset %d patch lost: reg 0 = %#x, want %#x", name, i, got, old+0x10_0000)
		}
		rs.SetReg(0, old) // restore
	}

	// Pairing: a resume ends the stop, after which a fresh stop must
	// succeed and see the same thread population.
	w.ResumeTheWorld()
	regs2 := w.StopTheWorld()
	if len(regs2) != len(regs) {
		t.Errorf("%s: re-stop returned %d regsets, first stop returned %d",
			name, len(regs2), len(regs))
	}
	w.ResumeTheWorld()
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic, got none", what)
		}
	}()
	fn()
}
