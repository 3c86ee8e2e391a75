package vm

import (
	"errors"
	"math"
)

// gate is the one question every block head asks, on both engines: must this
// thread stop here? atI is the first retired-instruction count at which
// something must happen (MaxInstrs trips, the move policy fires), atC the
// first modeled cycle count (MaxCycles trips, the profiler samples). due is
// two compares — the compiled engine asks it on flushed plus deferred
// counters, so a head where nothing is due flushes nothing — and act handles
// what is due. Only the process's own guest reads or writes it.
type gate struct {
	atI, atC uint64
}

func (g *gate) due(instrs, cycles uint64) bool {
	return instrs >= g.atI || cycles >= g.atC
}

// past is the first count beyond a limit: never, for 0 (no limit).
func past(limit uint64) uint64 {
	if limit == 0 || limit == math.MaxUint64 {
		return math.MaxUint64
	}
	return limit + 1
}

// arm recomputes the thresholds. Run arms before the guest starts, act after
// every visit.
func (v *VM) arm() {
	v.gate.atI, v.gate.atC = past(v.cfg.MaxInstrs), past(v.cfg.MaxCycles)
	if v.track != nil {
		v.gate.atC = min(v.gate.atC, v.track.Next())
	}
	if v.movePolicy != nil {
		v.gate.atI = min(v.gate.atI, v.moveTrigger.Next())
	}
}

// act handles what the pre-check found due, in a fixed order: the
// instruction limit, the cycle budget, the profiler sample, the move policy.
// Every counter it reads is flushed.
func (t *thread) act() error {
	v := t.v
	if v.Instrs >= past(v.cfg.MaxInstrs) {
		return &StopError{Reason: StopInstrLimit}
	}
	if v.Cycles >= past(v.cfg.MaxCycles) {
		return &StopError{Reason: StopCycleBudget}
	}
	if v.track != nil && v.Cycles >= v.track.Next() {
		// Attribute every elapsed interval to the guest's call stack and
		// settle the phase counters at the same granularity.
		v.track.Sample(v.Cycles, t.foldedStack)
		v.foldPhaseSamples()
	}
	if v.movePolicy != nil && v.moveTrigger.Due(v.Instrs) {
		if err := v.movePolicy(); err != nil {
			return err
		}
	}
	v.arm()
	return nil
}

// StopReason names why a run ended without returning from @main.
type StopReason string

// The reasons a run stops.
const (
	StopInstrLimit  StopReason = "instr_limit"  // Config.MaxInstrs
	StopCycleBudget StopReason = "cycle_budget" // Config.MaxCycles
	StopProtection  StopReason = "protection"   // a *Fault
	StopTrap        StopReason = "trap"         // any other guest error: overflow, unreachable, division, heap exhaustion, a bad free, an undefined external
)

// StopError is every error VM.Run returns. Err is what stopped the run — a
// protection stop's *Fault, a trap's cause — and nil for a limit.
type StopError struct {
	Reason StopReason
	Err    error
}

func (e *StopError) Error() string {
	if e.Err == nil {
		return "vm: run stopped: " + string(e.Reason)
	}
	return e.Err.Error()
}

// Unwrap returns Err: errors.As still finds a protection stop's *Fault.
func (e *StopError) Unwrap() error { return e.Err }

// stopped types the error a run ended with.
func stopped(err error) error {
	var se *StopError
	var f *Fault
	switch {
	case err == nil || errors.As(err, &se):
		return err
	case errors.As(err, &f):
		return &StopError{Reason: StopProtection, Err: err}
	}
	return &StopError{Reason: StopTrap, Err: err}
}
