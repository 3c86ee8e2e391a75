package passes

import (
	"reflect"
	"testing"

	"carat/internal/ir"
)

// attrSrc has two loads of the same global: one in the entry block and one
// inside a self-loop. Guard injection guards both; hoisting moves the loop
// guard into the preheader (= entry), where AC/DC then finds it redundant
// against the entry guard. The hoisted-then-removed guard must count toward
// exactly one Table 1 column.
const attrSrc = `module "attr"
global @lim : i64
func @f(%n: i64) -> i64 {
entry:
  %a = load i64, @lim
  br ^header
header:
  %i = phi i64 [0, ^entry], [%next, ^header]
  %b = load i64, @lim
  %next = add i64 %i, 1
  %cmp = icmp slt i64 %next, %b
  condbr %cmp, ^header, ^exit
exit:
  ret i64 %a
}`

func TestGuardAttributedOnce(t *testing.T) {
	m := ir.MustParse(attrSrc)
	pl := &PassManager{Passes: []Pass{&GuardInject{}, &HoistGuards{}, &RedundantGuards{}}}
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	s := &pl.Stats
	if s.GuardsInjected != 2 {
		t.Fatalf("GuardsInjected = %d, want 2", s.GuardsInjected)
	}
	if s.Hoisted != 1 {
		t.Errorf("Hoisted = %d, want 1", s.Hoisted)
	}
	// The hoisted guard was then deleted as redundant, but it was already
	// credited to Opt 1: Removed must stay 0.
	if s.Removed != 0 {
		t.Errorf("Removed = %d, want 0 (guard already attributed to hoisting)", s.Removed)
	}
	if s.GuardsRemaining != 1 {
		t.Errorf("GuardsRemaining = %d, want 1", s.GuardsRemaining)
	}
	if s.Untouched != 1 {
		t.Errorf("Untouched = %d, want 1", s.Untouched)
	}
	if s.Hoisted+s.Merged+s.Removed+s.Untouched != s.GuardsInjected {
		t.Errorf("attribution columns %d+%d+%d+%d do not sum to injected %d",
			s.Hoisted, s.Merged, s.Removed, s.Untouched, s.GuardsInjected)
	}
	// Attribution is per-function state; it must not leak into the merged
	// module totals.
	if s.attributed != nil {
		t.Error("module Stats.attributed is non-nil after Run")
	}
}

// TestAttributeCreditsOnce: each guard is credited once, whatever its ID —
// the set starts empty and grows to the guards it is asked about, so a guard
// born after any table was sized is no special case.
func TestAttributeCreditsOnce(t *testing.T) {
	var s Stats
	for _, id := range []int32{3, 1, 64, 1000} {
		g := &ir.Instr{Op: ir.OpGuard, ID: id}
		if !s.Attribute(g) {
			t.Errorf("guard %d: first Attribute = false, want true", id)
		}
		if s.Attribute(g) {
			t.Errorf("guard %d: second Attribute = true, want false", id)
		}
	}
	if s.Attribute(&ir.Instr{Op: ir.OpGuard, ID: 1}) || !s.Attribute(&ir.Instr{Op: ir.OpGuard, ID: 2}) {
		t.Error("growing the set lost or invented a credit")
	}
}

func TestAnalysisCacheHitsAcrossOpts(t *testing.T) {
	m := ir.MustParse(loopSrc)
	pl := Build(LevelGuardsOpt)
	if err := pl.Run(m); err != nil {
		t.Fatal(err)
	}
	cs := pl.AnalysisStats()
	if cs.Hits == 0 {
		t.Error("analysis cache hits = 0; Opt1→Opt2→Opt3 should share analyses")
	}
	if cs.Misses == 0 {
		t.Error("analysis cache misses = 0; something must have been computed")
	}
	if cs.Invalidations == 0 {
		t.Error("analysis invalidations = 0; mutating passes should drop results")
	}
}

func TestPassManagerWorkersDeterministic(t *testing.T) {
	for _, lvl := range []Level{LevelNone, LevelGuardsOnly, LevelGuardsOpt, LevelTracking} {
		m1 := ir.MustParse(loopSrc)
		p1 := Build(lvl)
		p1.Workers = 1
		if err := p1.Run(m1); err != nil {
			t.Fatal(err)
		}
		m8 := ir.MustParse(loopSrc)
		p8 := Build(lvl)
		p8.Workers = 8
		if err := p8.Run(m8); err != nil {
			t.Fatal(err)
		}
		if m1.String() != m8.String() {
			t.Errorf("level %d: workers=1 and workers=8 produced different IR", lvl)
		}
		if !reflect.DeepEqual(p1.Stats, p8.Stats) {
			t.Errorf("level %d: workers=1 and workers=8 produced different stats", lvl)
		}
	}
}
