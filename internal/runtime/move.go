package runtime

import (
	"fmt"

	"carat/internal/fault"
	"carat/internal/guard"
	"carat/internal/kernel"
	"carat/internal/obs"
)

// MoveBreakdown is the per-move cost decomposition of Table 3, in modeled
// cycles, plus the raw event counts behind each column.
type MoveBreakdown struct {
	ExpandCycles uint64 // "Page Expand": find + expand affected allocations
	PatchCycles  uint64 // "Patch Gen. & Exec.": escape patching
	RegCycles    uint64 // "Register Patch"
	MoveCycles   uint64 // "Allocation & Mem. Movement"

	AllocsMoved    int
	EscapesPatched int
	RegsPatched    int
	PagesMoved     uint64
}

// PrototypeCycles is ExpandCycles+PatchCycles+RegCycles: the prototype's
// cost excluding the data movement (Table 3 "Prototype Cost").
func (b *MoveBreakdown) PrototypeCycles() uint64 {
	return b.ExpandCycles + b.PatchCycles + b.RegCycles
}

// TotalCycles includes the movement ("Total Cost").
func (b *MoveBreakdown) TotalCycles() uint64 {
	return b.PrototypeCycles() + b.MoveCycles
}

// Modeled per-operation costs on the move path. Table lookups walk the
// red/black tree (cache-unfriendly); escape patches are a hash probe plus
// a read-modify-write of program memory.
const (
	cycTableLookup  = 130 // one Covering/Overlapping probe
	cycPerAllocScan = 60  // per affected allocation bookkeeping
	cycEscapePatch  = 55  // locate + rewrite one escape
	cycRegScan      = 2   // inspect one saved register
	cycRegPatch     = 9   // rewrite one saved register
	cycPageAlloc    = 900 // kernel page grant amortized per page
	cycPerByteMove  = 1   // data copy, bytes per cycle (DRAM bandwidth-ish)
	cycBarrier      = 400 // world-stop + resume round trip
)

// The barrier's cycBarrier cycles split across the Figure 8 barrier
// phases for trace attribution: the kernel's request delivery (step 1),
// interrupting the threads (2), the threads dumping register state (3),
// the world-stop rendezvous (4), and the retire/resume round trip (11).
// They must sum to cycBarrier so traced spans tile TotalCycles exactly.
const (
	cycStepRequest   = 50
	cycStepInterrupt = 100
	cycStepDumpRegs  = 150
	cycStepStop      = 50
	cycStepResume    = cycBarrier - cycStepRequest - cycStepInterrupt - cycStepDumpRegs - cycStepStop
)

// MoveStepNames are the 11 named steps of the Figure 8 move protocol, in
// protocol order — the span names a trace of one move contains.
var MoveStepNames = [11]string{
	"move.request",
	"move.interrupt_threads",
	"move.dump_registers",
	"move.world_stop",
	"move.expand_range",
	"move.find_allocations",
	"move.alloc_dst",
	"move.patch_escapes",
	"move.patch_registers",
	"move.copy_data",
	"move.retire_resume",
}

// HandleProtect implements kernel.MoveHandler: stop the world, let the
// kernel flip the region set, resume. The next guard sees the change
// (§2.2).
func (r *Runtime) HandleProtect(apply func() error) error {
	w := r.getWorld()
	w.StopTheWorld()
	defer w.ResumeTheWorld()
	r.opMu.Lock()
	defer r.opMu.Unlock()
	defer r.publishStop()
	r.Flush()
	r.tracer().Instant("protect.apply", "protocol")
	err := apply()
	// A protection flip does no patching: its pause is the barrier alone.
	r.observePause("protect", cycBarrier)
	return err
}

// HandleMove implements kernel.MoveHandler, executing steps 2-12 of
// Figure 8:
//
//	2-4.  stop the world; threads dump registers (World.StopTheWorld)
//	5.    negotiate: expand the page range until no allocation straddles
//	      its boundary, then get a destination from the kernel
//	6.    determine affected allocations
//	7-8.  compute and execute patches on every escape of every affected
//	      allocation, and on saved registers
//	9-10. move the data, free the source
//	11-12. resume; report completion
func (r *Runtime) HandleMove(req *kernel.MoveRequest) (kernel.MoveResult, error) {
	w := r.getWorld()
	regs := w.StopTheWorld()
	defer w.ResumeTheWorld()

	res, src, dst, length, err := r.handleMoveLocked(req, regs)
	if err != nil {
		return res, err
	}
	// Listeners run with the world still stopped but outside every runtime
	// lock, so a listener may re-enter the runtime (satellite: no callback
	// under a held mutex).
	for _, fn := range r.copyMoveListeners() {
		fn(src, dst, length)
	}
	return res, nil
}

// handleMoveLocked drives the move as a phase state machine: expand,
// negotiate, patch escapes, patch registers, rebase tables, copy, commit.
// The pause meter slices the stop-window work into windows that fit the
// pause budget (SetPauseBudget), separated by resume/stop round trips, with
// the guard-level forwarding window keeping accesses that race into the
// half-patched state correct in between; at budget 0 the single window
// never closes and the world stays stopped end to end. Phase order, every
// fault-injection draw, and every program-clock formula are the same at
// every budget: the budget changes pause *attribution* only, so modeled
// cycles and memory digests stay byte-identical per seed.
func (r *Runtime) handleMoveLocked(req *kernel.MoveRequest, regs []RegSet) (kernel.MoveResult, uint64, uint64, uint64, error) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	defer r.publishStop()
	r.Flush()

	st := &moveState{
		r:     r,
		req:   req,
		regs:  regs,
		inj:   r.injector(),
		meter: r.newPauseMeter("move", true),
	}
	st.bd.ExpandCycles += cycBarrier

	for _, phase := range []func() error{
		st.phaseExpand,
		st.phaseNegotiate,
		st.phasePatchEscapes,
		st.phasePatchRegisters,
		st.phaseRebase,
		st.phaseCopy,
		st.phaseCommit,
	} {
		if err := phase(); err != nil {
			return st.fail(err)
		}
	}

	r.MoveStats = append(r.MoveStats, st.bd)
	r.Stats.Moves.Inc()
	r.Stats.MoveCycles.Add(st.bd.TotalCycles())
	r.pubMu.Lock()
	r.hists().move.Observe(st.bd.TotalCycles())
	r.pubMu.Unlock()
	st.meter.finish()
	r.traceMove(&st.bd, st.src, st.dst, st.length, st.lookupCyc, st.scanCyc)
	return kernel.MoveResult{Src: st.src, Dst: st.dst, Pages: st.pages}, st.src, st.dst, st.length, nil
}

// moveState carries one in-flight move through its phases. The undo log
// (txn) is nil until destination negotiation succeeds: a failure before
// that point needs only a veto, a failure after it rolls back.
type moveState struct {
	r     *Runtime
	req   *kernel.MoveRequest
	regs  []RegSet
	inj   *fault.Injector
	meter *pauseMeter

	bd MoveBreakdown
	// lookupCyc/scanCyc split ExpandCycles for trace attribution only;
	// both still flow into bd.ExpandCycles unchanged.
	lookupCyc, scanCyc uint64

	src, dst, length uint64
	pages            uint64
	affected         []*Allocation
	txn              *moveTxn
	fwd              *guard.RegionSet // set holding our open forwarding window
}

// phaseExpand implements steps 5/6: expand [src, src+len) until its
// boundaries split no allocation (allocations must move in their entirety,
// §4.3). The table is re-queried on every iteration, so a window
// boundary inside this phase is safe: allocation churn from
// briefly-resumed mutators is folded into the next query.
func (st *moveState) phaseExpand() error {
	st.src = st.req.Src
	st.length = st.req.Pages * kernel.PageSize
	for {
		st.bd.ExpandCycles += cycTableLookup
		st.lookupCyc += cycTableLookup
		if err := st.meter.add(cycTableLookup); err != nil {
			return err
		}
		st.affected = st.r.Table.Overlapping(st.src, st.src+st.length)
		st.bd.ExpandCycles += uint64(len(st.affected)) * cycPerAllocScan
		st.scanCyc += uint64(len(st.affected)) * cycPerAllocScan
		if err := st.meter.addBulk(len(st.affected), cycPerAllocScan); err != nil {
			return err
		}
		grew := false
		if len(st.affected) > 0 {
			if first := st.affected[0]; first.Base < st.src {
				delta := st.src - alignDown(first.Base)
				st.src -= delta
				st.length += delta
				grew = true
			}
			if last := st.affected[len(st.affected)-1]; last.End() > st.src+st.length {
				st.length = alignUp(last.End()) - st.src
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	st.pages = st.length / kernel.PageSize

	// An abort here models the kernel cancelling its own request before a
	// destination exists: nothing has mutated yet, so a bare veto suffices.
	if err := st.inj.Fail(fault.MoveAbort, "before destination negotiation"); err != nil {
		return fmt.Errorf("runtime: move aborted: %w", err)
	}
	return nil
}

// phaseNegotiate implements step 5: the kernel allocates and maps the
// destination. On success the undo log opens — every later mutation is
// recorded before it is applied — and, when the mutators will run between
// pause windows, so does the forwarding window: patched pointers will name
// the destination while the data still lives at the source, and the window
// forwards those accesses back until the copy lands. A bounded move never
// runs without that read barrier: if it cannot open, the move rolls back.
func (st *moveState) phaseNegotiate() error {
	dst, err := st.req.NegotiateDst(st.src, st.pages)
	if err != nil {
		return fmt.Errorf("runtime: move negotiation failed: %w", err)
	}
	st.dst = dst
	st.bd.MoveCycles += st.pages * cycPageAlloc
	st.meter.concurrent(st.pages * cycPageAlloc)
	st.txn = &moveTxn{}
	if st.meter.bounded() {
		if rs := st.req.Regions(); rs != nil {
			if err := rs.OpenForward(st.src, st.dst, st.length); err != nil {
				return fmt.Errorf("runtime: move cannot open its forwarding window: %w", err)
			}
			st.fwd = rs
		}
	}
	return nil
}

// phasePatchEscapes implements steps 7-8: patch every escape of every
// affected allocation so each pointer names the address its target will
// have after the move. This is the phase pause windows exist for — escape
// density is what scales the pause (Table 3).
func (st *moveState) phasePatchEscapes() error {
	for _, a := range st.affected {
		st.bd.AllocsMoved++
		for _, loc := range st.r.Table.EscapeLocsOf(a) {
			st.bd.PatchCycles += cycEscapePatch
			if err := st.meter.add(cycEscapePatch); err != nil {
				return err
			}
			val := st.r.mem.Load64(loc)
			if val >= st.src && val < st.src+st.length {
				if st.inj.Should(fault.PatchFail) {
					return &fault.Error{Point: fault.PatchFail, Detail: fmt.Sprintf("escape at %#x", loc)}
				}
				st.txn.memWrites = append(st.txn.memWrites, memWrite{loc: loc, old: val})
				st.r.mem.Store64(loc, val-st.src+st.dst)
				st.bd.EscapesPatched++
			}
		}
	}
	return st.inj.Fail(fault.MoveAbort, "after escape patch")
}

// phasePatchRegisters patches in-register pointers (dumped by the opening
// world stop; the RegSet handles stay valid across batch boundaries). A
// register patch is word-atomic, so a boundary between two registers is
// safe: the patched ones read through the forwarding window.
func (st *moveState) phasePatchRegisters() error {
	for _, rs := range st.regs {
		vals := rs.Regs()
		for i, v := range vals {
			st.bd.RegCycles += cycRegScan
			if err := st.meter.add(cycRegScan); err != nil {
				return err
			}
			if v >= st.src && v < st.src+st.length {
				st.txn.regWrites = append(st.txn.regWrites, regWrite{rs: rs, i: i, old: v})
				rs.SetReg(i, v-st.src+st.dst)
				st.bd.RegCycles += cycRegPatch
				if err := st.meter.add(cycRegPatch); err != nil {
					return err
				}
				st.bd.RegsPatched++
			}
		}
	}
	return st.inj.Fail(fault.MoveAbort, "after register patch")
}

// phaseRebase performs the table maintenance: rebase moved allocations and
// any escape locations that themselves live in the moved range.
func (st *moveState) phaseRebase() error {
	for _, a := range st.affected {
		st.r.Table.Rebase(a, a.Base-st.src+st.dst)
		st.txn.rebased = append(st.txn.rebased, a)
	}
	moved := st.r.rebaseEscapeLocs(st.src, st.src+st.length, st.dst)
	st.txn.escMoved = true
	st.bd.PatchCycles += uint64(moved) * cycEscapePatch
	if err := st.meter.addBulk(moved, cycEscapePatch); err != nil {
		return err
	}
	st.r.rebaseSwapLocs(st.src, st.dst, st.length)
	st.txn.swapMoved = true
	return st.inj.Fail(fault.MoveAbort, "before data copy")
}

// phaseCopy implements step 9: move the data. The copy is always charged to
// the program clock, but attributed off-pause when the forwarding window is
// open — a production runtime copies concurrently under it, and the flip to
// the destination happens inside the final stop.
func (st *moveState) phaseCopy() error {
	if err := st.r.mem.Move(st.dst, st.src, st.length); err != nil {
		return fmt.Errorf("runtime: data move failed: %w", err)
	}
	st.txn.copied = true
	st.bd.MoveCycles += st.length * cycPerByteMove
	st.meter.concurrent(st.length * cycPerByteMove)
	st.bd.PagesMoved = st.pages
	if st.fwd != nil {
		// Data is at the destination now: stale source pointers forward.
		st.fwd.FlipForward()
	}
	return nil
}

// phaseCommit implements step 10: retire the source frames. RetireSrc is
// the commit point — once the kernel retires the source the move is final
// and the forwarding window closes.
func (st *moveState) phaseCommit() error {
	if err := st.req.RetireSrc(st.src, st.pages); err != nil {
		return fmt.Errorf("runtime: source retire failed: %w", err)
	}
	st.closeForward()
	return nil
}

func (st *moveState) closeForward() {
	if st.fwd != nil {
		st.fwd.CloseForward()
		st.fwd = nil
	}
}

// fail unwinds a failed phase. Before destination negotiation (txn nil)
// nothing has mutated: a bare veto suffices. After it, the undo log rolls
// the address space back to the exact pre-move state. The pause observed
// at the abort covers the work since the last window boundary (at budget 0:
// the whole partial breakdown).
func (st *moveState) fail(cause error) (kernel.MoveResult, uint64, uint64, uint64, error) {
	st.meter.closeWindow("move_abort")
	if st.txn == nil {
		st.req.Veto()
		return kernel.MoveResult{}, 0, 0, 0, cause
	}
	st.closeForward()
	return kernel.MoveResult{}, 0, 0, 0, st.r.rollbackMove(st.req, st.txn, st.src, st.dst, st.length, cause)
}

// moveTxn is the undo log of one in-flight move: every mutation made
// after destination negotiation, recorded before it is applied. The
// booleans mark the all-or-nothing table/copy steps; the write logs keep
// original values in application order so rollback can restore them in
// reverse.
type moveTxn struct {
	memWrites []memWrite    // escape-location rewrites
	regWrites []regWrite    // saved-register rewrites
	rebased   []*Allocation // allocations rebased src->dst
	escMoved  bool          // escape locations rebased src->dst
	swapMoved bool          // swap-record escape locations rebased
	copied    bool          // data copied to dst (source zeroed)
}

type memWrite struct{ loc, old uint64 }

type regWrite struct {
	rs  RegSet
	i   int
	old uint64
}

// rollbackMove restores the exact pre-move state after an abort: undo the
// data copy, rebase tables back, restore registers and memory words in
// reverse application order, and return the negotiated destination to the
// kernel — whose region release raises EventInvalidateRange, so the VM's
// guard/translation caches drop anything covering the stillborn
// destination. The abort counts as a veto in the kernel's accounting.
// Returns the error the failed move reports, wrapping cause.
func (r *Runtime) rollbackMove(req *kernel.MoveRequest, txn *moveTxn, src, dst, length uint64, cause error) error {
	if txn.copied {
		if err := r.mem.Move(src, dst, length); err != nil {
			return fmt.Errorf("runtime: rollback copy-back failed: %v (aborting move: %w)", err, cause)
		}
	}
	if txn.swapMoved {
		r.rebaseSwapLocs(dst, src, length)
	}
	if txn.escMoved {
		r.rebaseEscapeLocs(dst, dst+length, src)
	}
	for i := len(txn.rebased) - 1; i >= 0; i-- {
		a := txn.rebased[i]
		r.Table.Rebase(a, a.Base-dst+src)
	}
	for i := len(txn.regWrites) - 1; i >= 0; i-- {
		w := txn.regWrites[i]
		w.rs.SetReg(w.i, w.old)
	}
	for i := len(txn.memWrites) - 1; i >= 0; i-- {
		w := txn.memWrites[i]
		r.mem.Store64(w.loc, w.old)
	}
	if err := req.AbortDst(dst, length/kernel.PageSize); err != nil {
		return fmt.Errorf("runtime: rollback destination release failed: %v (aborting move: %w)", err, cause)
	}
	req.Veto()
	r.Stats.MoveRollbacks.Inc()
	r.tracer().Instant("fault.rollback", "fault",
		obs.A("src", src), obs.A("dst", dst), obs.A("bytes", length),
		obs.A("cause", cause.Error()))
	if err := r.Table.MaybeCheckInvariants(); err != nil {
		return fmt.Errorf("runtime: invariants violated after rollback: %v (aborting move: %w)", err, cause)
	}
	return fmt.Errorf("runtime: move aborted and rolled back: %w", cause)
}

// traceMove emits one span per Figure 8 protocol step, laid end to end on
// the simulated timeline starting at the current cycle. The 11 durations
// tile bd.TotalCycles() exactly: the cycBarrier world-stop cost splits
// across steps 1-4 and 11, ExpandCycles (minus the barrier) splits into
// table lookups (step 5) and allocation scans (step 6), and the remaining
// steps map one-to-one onto the Table 3 columns. Tracing reads the
// breakdown after the fact and charges nothing — results are identical
// with tracing on or off.
func (r *Runtime) traceMove(bd *MoveBreakdown, src, dst, length, lookupCyc, scanCyc uint64) {
	tr := r.tracer()
	if tr == nil {
		return
	}
	ts := tr.Now()
	durs := [11]uint64{
		cycStepRequest,
		cycStepInterrupt,
		cycStepDumpRegs,
		cycStepStop,
		lookupCyc,
		scanCyc,
		bd.PagesMoved * cycPageAlloc,
		bd.PatchCycles,
		bd.RegCycles,
		length * cycPerByteMove,
		cycStepResume,
	}
	tr.SpanAt("move", "protocol", ts, bd.TotalCycles(),
		obs.A("src", src), obs.A("dst", dst), obs.A("bytes", length),
		obs.A("allocs_moved", bd.AllocsMoved), obs.A("escapes_patched", bd.EscapesPatched),
		obs.A("regs_patched", bd.RegsPatched))
	for i, name := range MoveStepNames {
		tr.SpanAt(name, "protocol", ts, durs[i], obs.A("step", i+1))
		ts += durs[i]
	}
}

// WorstCasePage returns the page-aligned base of the page overlapping the
// allocation with the most escapes — the page the Figure 9 experiment
// repeatedly moves ("the runtime selects a page that overlaps the
// allocation with the most pointer escapes").
func (r *Runtime) WorstCasePage() (uint64, bool) {
	best := r.mostEscaped(nil)
	if best == nil {
		return 0, false
	}
	return alignDown(best.Base), true
}

// mostEscaped returns the allocation with the most escapes among those
// eligible accepts (nil: all of them); of several with that many, the one at
// the lowest address. One walk of the allocations, reading a count from
// each: choosing what to move is the only step of an injected move that
// looks at more than the move affects.
func (r *Runtime) mostEscaped(eligible func(*Allocation) bool) *Allocation {
	r.Flush()
	var best *Allocation
	bestN := -1
	r.Table.ForEach(func(a *Allocation) bool {
		if n := a.EscapeCount(); n > bestN && (eligible == nil || eligible(a)) {
			best, bestN = a, n
		}
		return true
	})
	return best
}

func alignDown(a uint64) uint64 { return a &^ (kernel.PageSize - 1) }
func alignUp(a uint64) uint64   { return (a + kernel.PageSize - 1) &^ (kernel.PageSize - 1) }
