package runtime_test

// The World conformance suite, driven against the worldtest fake that
// runtime-level move tests build on. The VM's real world runs the
// identical suite from its own package (it is the other World
// implementation), so both sides of the move protocol are held to the same
// stop/resume contract. This file is an external test
// (runtime_test) because worldtest imports runtime: an internal test file
// importing it would be an import cycle.

import (
	"testing"

	"carat/internal/worldtest"
)

func TestFakeWorldConformance(t *testing.T) {
	w := worldtest.NewFake(
		&worldtest.FakeRegs{Vals: []uint64{0x1000, 0x2000, 0x3000}},
		&worldtest.FakeRegs{Vals: []uint64{0x4000}},
		&worldtest.FakeRegs{}, // a thread with no pointer registers
	)
	worldtest.Conformance(t, "fakeWorld", w)
	if w.Stops == 0 || w.Stops != w.Resumes {
		t.Errorf("stops/resumes not paired: %d/%d", w.Stops, w.Resumes)
	}
}

func TestFakeWorldConformanceEmpty(t *testing.T) {
	// A world with no live threads still honors the stop/resume structure.
	worldtest.Conformance(t, "fakeWorld(empty)", worldtest.NewFake())
}
