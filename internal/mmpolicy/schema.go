package mmpolicy

import (
	"encoding/json"
	"fmt"
	"io"

	"carat/internal/kernel"
	"carat/internal/obs"
	"carat/internal/runtime"
)

// Machine-readable policy output. Like the other carat.* documents the
// format is versioned: bump SchemaVersion whenever a field is renamed,
// removed, or changes meaning (additions are compatible). The schema is
// documented in DESIGN.md ("Observability") and validated by
// scripts/validatejson.

// Schema identifies the policy-decision document format.
const Schema = "carat.policy"

// SchemaVersion is the current document format version.
// v2 added pause_p99_cycles and pause_budget_cycles; v3 drops
// pause_budget_cycles (a move or swap is always one stop).
const SchemaVersion = 3

// Decision actions.
const (
	ActionMove    = "move"     // compaction / migration page move
	ActionSwapOut = "swap_out" // tiering eviction
	ActionSwapIn  = "swap_in"  // poison-fault restore
	ActionVeto    = "veto"     // a change request the system refused
	ActionPin     = "pin"      // page pinned after repeated move failures
)

// Decision is one policy action the daemon took (or had vetoed).
type Decision struct {
	Tick   int    `json:"tick"`
	Cycle  uint64 `json:"cycle"` // simulated cycle of the wakeup
	Policy string `json:"policy"`
	Action string `json:"action"`
	Proc   string `json:"proc"`
	Base   uint64 `json:"base"`
	Pages  uint64 `json:"pages"`
	// Cycles is the modeled cost of executing the decision (for moves,
	// the runtime's Table 3 breakdown total).
	Cycles uint64 `json:"cycles"`
	Reason string `json:"reason,omitempty"`
}

// Totals aggregates the decision log.
type Totals struct {
	Moves    uint64 `json:"moves"`
	SwapOuts uint64 `json:"swap_outs"`
	SwapIns  uint64 `json:"swap_ins"`
	Vetoes   uint64 `json:"vetoes"`
	Pins     uint64 `json:"pins"`
	// MoveCycles is the modeled cost of all executed decisions;
	// DaemonCycles is the daemon's own scan/dispatch overhead.
	MoveCycles   uint64 `json:"move_cycles"`
	DaemonCycles uint64 `json:"daemon_cycles"`
}

// Document is the top-level machine-readable record of a daemon run.
type Document struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Policies lists the active policies in tick order.
	Policies  []string   `json:"policies"`
	Ticks     int        `json:"ticks"`
	Decisions []Decision `json:"decisions"`
	Totals    Totals     `json:"totals"`
	// FragBefore/FragAfter bracket the run's fragmentation picture:
	// before is captured at the first tick (or CaptureFragBefore), after
	// at Report time.
	FragBefore *kernel.FragStats `json:"frag_before,omitempty"`
	FragAfter  *kernel.FragStats `json:"frag_after,omitempty"`
	// PauseCycles is the carat.runtime.pause_cycles histogram at Report
	// time: every world stop (moves, aborts, protection flips,
	// swaps) across all managed processes, with p50/p95/p99. Every world
	// stop publishes into the kernel's registry when it ends, so this
	// aggregates the whole machine.
	PauseCycles *obs.HistogramSnapshot `json:"pause_cycles,omitempty"`
	// PauseP99Cycles (v2) surfaces the p99 pause as a first-class column so
	// policy comparisons don't have to dig into the histogram; it equals
	// PauseCycles.P99 (0 when no pauses were recorded).
	PauseP99Cycles float64 `json:"pause_p99_cycles"`
}

// Report assembles the versioned decision document for the run so far.
func (d *Daemon) Report() *Document {
	d.mu.Lock()
	defer d.mu.Unlock()
	doc := &Document{
		Schema:     Schema,
		Version:    SchemaVersion,
		Ticks:      d.ticks,
		Decisions:  append([]Decision(nil), d.decisions...),
		Totals:     d.totals,
		FragBefore: d.fragBefore,
	}
	for _, p := range d.policies {
		doc.Policies = append(doc.Policies, p.Name())
	}
	fs := d.K.Alloc.FragStats()
	doc.FragAfter = &fs
	if ps := d.K.Obs.Histogram(runtime.PauseHist).Snapshot(); ps.Count > 0 {
		doc.PauseCycles = &ps
		doc.PauseP99Cycles = ps.P99
	}
	return doc
}

// Validate checks the document against itself: the first-class
// pause_p99_cycles column agrees with the pause_cycles histogram, and is
// zero when no pauses were recorded.
func (doc *Document) Validate() error {
	var p99 float64
	if doc.PauseCycles != nil && doc.PauseCycles.Count > 0 {
		p99 = doc.PauseCycles.P99
	}
	if doc.PauseP99Cycles != p99 {
		return fmt.Errorf("pause_p99_cycles %.0f disagrees with the pause_cycles p99 %.0f",
			doc.PauseP99Cycles, p99)
	}
	return nil
}

// WriteJSON writes the document as indented JSON.
func (doc *Document) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
