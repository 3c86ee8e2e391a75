package vm

import "carat/internal/obs"

// Run report schema identifiers (see DESIGN.md "Observability"). Bump
// RunVersion on any incompatible field change.
const (
	RunSchema  = "carat.vm.run"
	RunVersion = 1
)

// RunReport is caratvm's -json document: a finished run's outcome plus its
// cycle-attribution profile and metrics snapshot.
type RunReport struct {
	Schema  string             `json:"schema"`
	Version int                `json:"version"`
	Module  string             `json:"module"`
	Exit    int64              `json:"exit"`
	Instrs  uint64             `json:"instrs"`
	Cycles  uint64             `json:"cycles"`
	CPI     float64            `json:"cpi"`
	Profile obs.CycleBreakdown `json:"profile"`
	Metrics obs.Snapshot       `json:"metrics"`
	Output  []int64            `json:"output,omitempty"`
}

// Report returns the run report of a run that returned exit.
func (v *VM) Report(exit int64) *RunReport {
	return &RunReport{
		Schema:  RunSchema,
		Version: RunVersion,
		Module:  v.prog.mod.Name,
		Exit:    exit,
		Instrs:  v.Instrs,
		Cycles:  v.Cycles,
		CPI:     float64(v.Cycles) / float64(v.Instrs),
		Profile: v.Prof.Breakdown(),
		Metrics: v.Obs().Snapshot(),
		Output:  v.Output,
	}
}
