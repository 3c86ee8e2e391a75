package mmpolicy

import (
	"testing"

	"carat/internal/fault"
	"carat/internal/kernel"
)

// TestTryMoveRetryBackoffAndPin walks one page through the daemon's whole
// failure policy under a kernel that vetoes every move: first failure,
// silent backoff window, exponentially spaced retries, and finally a pin
// — each stage observable through the carat.policy.* metrics and the
// decision log.
func TestTryMoveRetryBackoffAndPin(t *testing.T) {
	k := kernel.New(1 << 20)
	d := New(k)
	mp, p, rt := testProc(t, d, k, "victim")
	base := grantAlloc(t, p, rt, 1)

	inj := fault.New(1, k.Obs)
	inj.SetRate(fault.KernelVeto, 1) // every negotiation fails
	k.SetInjector(inj)

	try := func(now uint64) bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		_, ok := d.tryMove(mp, "test", base, 1, now)
		return ok
	}

	// First attempt: a plain failure, not a retry. Backoff starts.
	if try(0) {
		t.Fatal("move succeeded under an always-veto kernel")
	}
	if got := d.stats.Retries.Get(); got != 0 {
		t.Errorf("first failure counted as a retry: %d", got)
	}
	if got := k.Stats.MoveVetoes.Get(); got != 1 {
		t.Fatalf("kernel vetoes = %d, want 1", got)
	}

	// Inside the backoff window the daemon must not even ask the kernel.
	if try(retryBackoffCyc - 1) {
		t.Fatal("backing-off page moved")
	}
	if got := k.Stats.MoveVetoes.Get(); got != 1 {
		t.Errorf("daemon retried inside the backoff window (vetoes = %d)", got)
	}

	// Retries at the exponential boundaries: 20k, 20k+40k, 60k+80k.
	for i, now := range []uint64{
		retryBackoffCyc,
		retryBackoffCyc + retryBackoffCyc<<1,
		retryBackoffCyc + retryBackoffCyc<<1 + retryBackoffCyc<<2,
	} {
		if try(now) {
			t.Fatalf("retry %d succeeded under an always-veto kernel", i+1)
		}
		if got := d.stats.Retries.Get(); got != uint64(i+1) {
			t.Errorf("carat.policy.move_retries = %d after retry %d", got, i+1)
		}
	}

	// Fourth failure pinned the page.
	if got := d.stats.Pins.Get(); got != 1 {
		t.Errorf("carat.policy.pins = %d, want 1", got)
	}
	if got := d.stats.PinnedPages.Get(); got != 1 {
		t.Errorf("carat.policy.pinned_pages = %d, want 1", got)
	}
	if len(d.moveFails) != 0 {
		t.Error("pinned page still carries a failure record")
	}

	// A pinned page is skipped silently — even with faults disabled the
	// daemon never asks the kernel about it again.
	inj.SetRate(fault.KernelVeto, 0)
	vetoes := k.Stats.MoveVetoes.Get()
	if try(1 << 40) {
		t.Fatal("pinned page moved")
	}
	if got := k.Stats.MoveVetoes.Get(); got != vetoes {
		t.Error("daemon issued a move request for a pinned page")
	}

	// The decision log records the terminal pin (and the earlier vetoes).
	doc := d.Report()
	if doc.Totals.Pins != 1 {
		t.Errorf("decision-log pins = %d, want 1", doc.Totals.Pins)
	}
	var pins int
	for _, dec := range doc.Decisions {
		if dec.Action == ActionPin {
			pins++
			if dec.Base != base {
				t.Errorf("pin recorded for base %#x, want %#x", dec.Base, base)
			}
		}
	}
	if pins != 1 {
		t.Errorf("pin decisions = %d, want 1", pins)
	}
	if inj.InjectedCount() == 0 {
		t.Error("carat.fault.injected not advanced")
	}
}

// TestTryMoveRecoversAfterTransientFailure: one injected veto, then the
// fault clears. The retry after backoff succeeds and the failure record
// is dropped — no pin, no lingering backoff state.
func TestTryMoveRecoversAfterTransientFailure(t *testing.T) {
	k := kernel.New(1 << 20)
	d := New(k)
	mp, p, rt := testProc(t, d, k, "victim")
	base := grantAlloc(t, p, rt, 1)

	inj := fault.New(1, k.Obs)
	k.SetInjector(inj)
	inj.Arm(fault.KernelVeto, 1)

	d.mu.Lock()
	if _, ok := d.tryMove(mp, "test", base, 1, 0); ok {
		t.Fatal("armed veto did not fail the move")
	}
	res, ok := d.tryMove(mp, "test", base, 1, retryBackoffCyc)
	d.mu.Unlock()
	if !ok {
		t.Fatal("retry after a transient failure did not succeed")
	}
	if res.Dst == base {
		t.Error("successful retry did not relocate the page")
	}
	if got := d.stats.Retries.Get(); got != 1 {
		t.Errorf("carat.policy.move_retries = %d, want 1", got)
	}
	if d.stats.Pins.Get() != 0 || len(d.pinned) != 0 {
		t.Error("transient failure escalated to a pin")
	}
	if len(d.moveFails) != 0 {
		t.Error("failure record survived a successful retry")
	}
}
