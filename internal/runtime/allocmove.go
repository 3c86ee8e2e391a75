package runtime

import (
	"fmt"

	"carat/internal/kernel"
)

// This file implements the paper's §6 "Allocation Granularity" extension:
// moving a single allocation instead of whole pages. Because allocations
// move in their entirety by construction, there is no page-expand
// negotiation and no impedance mismatch with page semantics — the paper
// predicts (Table 3's last column) that this removes ~95% of the move cost
// for most benchmarks. MoveAllocationTo realizes that design so the
// ablation benchmark can measure it.

// MoveAllocationTo relocates the single allocation based at base to dst
// (a caller-provided destination of at least the allocation's size that
// must not overlap it). It performs the same world-stop, escape-patch,
// register-patch, data-copy sequence as a page move, minus expansion and
// page negotiation. The recorded MoveBreakdown has zero expand cost.
func (r *Runtime) MoveAllocationTo(base, dst uint64) (MoveBreakdown, error) {
	w := r.getWorld()
	regs := w.StopTheWorld()
	defer w.ResumeTheWorld()

	bd, length, err := r.moveAllocationLocked(base, dst, regs)
	if err != nil {
		return bd, err
	}
	// Listeners run with the world still stopped but outside every runtime
	// lock (same contract as HandleMove).
	for _, fn := range r.moveListenerList() {
		fn(base, dst, length)
	}
	return bd, nil
}

func (r *Runtime) moveAllocationLocked(base, dst uint64, regs []RegSet) (MoveBreakdown, uint64, error) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	defer r.publishStop()
	r.Flush()

	var bd MoveBreakdown
	a := r.Table.Covering(base)
	if a == nil || a.Base != base {
		return bd, 0, fmt.Errorf("runtime: no allocation based at %#x", base)
	}
	length := a.Len
	if dst < base+length && base < dst+length {
		return bd, 0, fmt.Errorf("runtime: allocation move ranges overlap")
	}
	bd.ExpandCycles = 0 // the whole point: no page expansion
	bd.PatchCycles += cycTableLookup
	bd.AllocsMoved = 1

	// Patch escapes of this allocation.
	st := r.mover()
	st.locs = r.Table.EscapeLocsOf(a, st.locs)
	for _, loc := range st.locs {
		bd.PatchCycles += cycEscapePatch
		val := r.mem.Load64(loc)
		if val >= base && val < base+length {
			r.mem.Store64(loc, val-base+dst)
			bd.EscapesPatched++
		}
	}
	// Registers.
	for _, rs := range regs {
		vals := rs.Regs()
		for i, v := range vals {
			bd.RegCycles += cycRegScan
			if v >= base && v < base+length {
				rs.SetReg(i, v-base+dst)
				bd.RegCycles += cycRegPatch
				bd.RegsPatched++
			}
		}
	}
	// Table maintenance.
	r.Table.Rebase(a, dst)
	moved := r.rebaseEscapeLocs(base, base+length, dst)
	bd.PatchCycles += uint64(moved) * cycEscapePatch
	r.rebaseSwapLocs(base, dst, length)

	// Copy only the allocation's bytes — not whole pages.
	if err := r.mem.Move(dst, base, length); err != nil {
		return bd, 0, err
	}
	bd.MoveCycles += length * cycPerByteMove
	bd.PagesMoved = (length + kernel.PageSize - 1) / kernel.PageSize

	r.MoveStats = append(r.MoveStats, bd)
	return bd, length, nil
}

// WorstCaseHeapAllocation returns the base of the most-escaped non-static
// allocation within [lo, hi), for the allocation-granularity ablation
// (which relocates within the heap).
func (r *Runtime) WorstCaseHeapAllocation(lo, hi uint64) (base, length uint64, ok bool) {
	best := r.mostEscapedWhere(func(a *Allocation) bool {
		return !a.Static && a.Base >= lo && a.End() <= hi
	})
	if best == nil {
		return 0, 0, false
	}
	return best.Base, best.Len, true
}
