package runtime

import (
	"fmt"

	"carat/internal/fault"
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
func (r *Runtime) HandleMove(req kernel.MoveRequest) (kernel.MoveResult, error) {
	_, res, err := r.move(kindPage, req, 0)
	return res, err
}

// MoveAllocationTo relocates the single allocation based at base to dst, a
// caller-provided destination of at least the allocation's size that must
// not overlap it: the paper's §6 "Allocation Granularity" extension. It is
// a move like HandleMove's — one stop, the same patch, register, rebase and
// copy phases, the same undo log, counters and pause — with phaseLocate in
// place of page expansion, negotiation and commit. Allocations move whole
// by construction, so there is nothing to expand and no page semantics to
// negotiate; the paper predicts (Table 3's last column) that this removes
// ~95% of the move cost. The returned MoveBreakdown has zero expand cost:
// no barrier, no page grant, only the allocation's bytes.
func (r *Runtime) MoveAllocationTo(base, dst uint64) (MoveBreakdown, error) {
	bd, _, err := r.move(kindAlloc, kernel.MoveRequest{Src: base}, dst)
	return bd, err
}

// moveKind is what a move moves: which phases it runs (movePhases) and what
// its success reports.
type moveKind uint8

const (
	kindPage    moveKind = iota // the kernel's page range (HandleMove)
	kindAlloc                   // one allocation to the caller's destination (MoveAllocationTo)
	kindSwapOut                 // one allocation to its swap slot's poison base (SwapOut)
	kindSwapIn                  // one allocation from its poison base to the caller's destination (SwapIn)
)

// move runs one move of any kind: stop the world, run the phases under the
// runtime's lock, and — on success — run the listeners with the world still
// stopped but outside every runtime lock, so a listener may re-enter the
// runtime. A move calls the move listeners; a swap calls the invalidation
// listeners with the range it vacated or filled, and never a move listener,
// which would see a poison address for a destination.
func (r *Runtime) move(kind moveKind, req kernel.MoveRequest, dst uint64) (MoveBreakdown, kernel.MoveResult, error) {
	w := r.getWorld()
	regs := w.StopTheWorld()
	defer w.ResumeTheWorld()

	bd, res, length, err := r.moveLocked(kind, req, dst, regs)
	if err != nil {
		return bd, res, err
	}
	switch kind {
	case kindSwapOut:
		r.notifyInvalidate(res.Src, length)
	case kindSwapIn:
		r.notifyInvalidate(res.Dst, length)
	default:
		for _, fn := range r.moveListenerList() {
			fn(res.Src, res.Dst, length)
		}
	}
	return bd, res, nil
}

// moveLocked drives the move as a phase state machine (movePhases), then runs
// the success epilogue of its kind. The world stays stopped end to end: a
// move is one pause, its whole MoveBreakdown.TotalCycles, observed once under
// "move" (or "move_abort"); a swap is one "swap_out" or "swap_in" pause (see
// finishSwap). Every kind draws the injector's faults at the shared phases'
// boundaries, and a swap its I/O fault besides.
func (r *Runtime) moveLocked(kind moveKind, req kernel.MoveRequest, dst uint64, regs []RegSet) (MoveBreakdown, kernel.MoveResult, uint64, error) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	defer r.publishStop()
	r.Flush()
	if debugInvariants { // st.affected holds slots: none may be reused before the move ends
		r.Table.frozen.Store(true)
		defer r.Table.frozen.Store(false)
	}

	st := r.mover()
	defer st.reset()
	st.kind, st.req, st.regs, st.inj = kind, req, regs, r.injector()
	st.src, st.dst = req.Src, dst
	switch kind {
	case kindSwapOut:
		st.slot = uint64(len(r.swapSlots)) // see maxSwapSlots
		if n := len(r.freeSlots); st.slot == maxSwapSlots && n > 0 {
			st.slot = r.freeSlots[n-1]
		}
		st.dst = swapPoison(st.slot, 0)
	case kindSwapIn:
		st.slot, _, _ = DecodeSwapPoison(st.src)
	}
	for _, phase := range movePhases[kind] {
		if err := phase(st); err != nil {
			return st.bd, kernel.MoveResult{}, 0, st.fail(err)
		}
	}
	res := kernel.MoveResult{Src: st.src, Dst: st.dst, Pages: st.pages}
	if kind >= kindSwapOut {
		r.finishSwap(st)
		return st.bd, res, st.length, nil
	}

	r.MoveStats = append(r.MoveStats, st.bd)
	r.Stats.Moves.Inc()
	r.Stats.MoveCycles.Add(st.bd.TotalCycles())
	r.pubMu.Lock()
	r.hists().move.Observe(st.bd.TotalCycles())
	r.pubMu.Unlock()
	r.observePause("move", st.bd.TotalCycles())
	if kind == kindPage {
		r.traceMove(&st.bd, st.src, st.dst, st.length, st.lookupCyc, st.scanCyc)
	}
	return st.bd, res, st.length, nil
}

// movePhases are each kind's phases in protocol order. Every kind patches,
// rebases and copies through the same middle: a kernel page move expands and
// negotiates first and commits last; an allocation move and both swaps
// locate one allocation first; a swap checks its slot and draws its I/O fault
// before anything mutates, and copies to or from the slot's buffer.
var movePhases = [...][]func(*moveState) error{
	kindPage: {
		(*moveState).phaseExpand,
		(*moveState).phaseNegotiate,
		(*moveState).phasePatchEscapes,
		(*moveState).phasePatchRegisters,
		(*moveState).phaseRebase,
		(*moveState).phaseCopy,
		(*moveState).phaseCommit,
	},
	kindAlloc: {
		(*moveState).phaseLocate,
		(*moveState).phasePatchEscapes,
		(*moveState).phasePatchRegisters,
		(*moveState).phaseRebase,
		(*moveState).phaseCopy,
	},
	kindSwapOut: swapPhases,
	kindSwapIn:  swapPhases,
}

// swapPhases are both swap directions' phases.
var swapPhases = []func(*moveState) error{
	(*moveState).phaseLocate,
	(*moveState).phaseSwapIO,
	(*moveState).phasePatchEscapes,
	(*moveState).phasePatchRegisters,
	(*moveState).phaseRebase,
	(*moveState).phaseSwapCopy,
}

// moveState carries one in-flight move through its phases. A runtime has
// one, allocated at its first move or swap (see mover) and reset after every
// one, so its slices keep their storage. The undo log (txn) opens at the
// first patch: a failure before that point needs only a veto, a failure
// after it rolls back.
type moveState struct {
	r    *Runtime
	kind moveKind
	req  kernel.MoveRequest
	regs []RegSet
	inj  *fault.Injector

	bd MoveBreakdown
	// lookupCyc/scanCyc split ExpandCycles for trace attribution only;
	// both still flow into bd.ExpandCycles unchanged.
	lookupCyc, scanCyc uint64

	src, dst, length uint64
	pages            uint64
	slot             uint64 // a swap's slot
	affected         []*Allocation
	txn              moveTxn

	locs      []uint64 // the affected allocations' escape locations, snapshotted for patching
	ends      []int    // where each affected allocation's locations end in locs
	spareData [][]byte // swapped-in slots' buffers, for later swap-outs
}

// mover returns the runtime's move state, allocating it at the first move or
// swap: a run that never stops the world for either carries none. The caller
// holds opMu.
func (r *Runtime) mover() *moveState {
	if r.mv == nil {
		r.mv = &moveState{r: r}
	}
	return r.mv
}

// reset readies the state for the next move: it keeps the storage and drops
// what the finished move referenced.
func (st *moveState) reset() {
	clear(st.affected)
	clear(st.txn.regWrites)
	*st = moveState{
		r: st.r, affected: st.affected[:0], locs: st.locs, ends: st.ends, spareData: st.spareData,
		txn: moveTxn{memWrites: st.txn.memWrites[:0], regWrites: st.txn.regWrites[:0]},
	}
}

// phaseExpand implements steps 5/6: charge the world-stop barrier, then
// expand [src, src+len) until its boundaries split no allocation
// (allocations must move in their entirety, §4.3).
func (st *moveState) phaseExpand() error {
	st.bd.ExpandCycles += cycBarrier
	st.length = st.req.Pages * kernel.PageSize
	for {
		st.bd.ExpandCycles += cycTableLookup
		st.lookupCyc += cycTableLookup
		st.affected = st.r.Table.Overlapping(st.src, st.src+st.length, st.affected)
		st.bd.ExpandCycles += uint64(len(st.affected)) * cycPerAllocScan
		st.scanCyc += uint64(len(st.affected)) * cycPerAllocScan
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

// phaseLocate is the first phase of an allocation move and of a swap: take
// the allocation based at src and check that the destination overlaps no
// tracked allocation, the moving one included. The allocation is the whole
// move, so nothing expands. Only a swap-in moves from a poison base: any
// other kind refuses a swapped-out allocation.
func (st *moveState) phaseLocate() error {
	a := st.r.Table.Covering(st.src)
	if a == nil || a.Base != st.src || kernel.IsPoison(st.src) != (st.kind == kindSwapIn) {
		return fmt.Errorf("runtime: no allocation based at %#x", st.src)
	}
	st.length = a.Len
	if len(st.r.Table.Overlapping(st.dst, st.dst+st.length, nil)) > 0 {
		return fmt.Errorf("runtime: move destination [%#x,%#x) overlaps a tracked allocation", st.dst, st.dst+st.length)
	}
	st.pages = alignUp(st.length) / kernel.PageSize
	st.affected = append(st.affected, a)
	st.bd.PatchCycles += cycTableLookup
	return nil
}

// phaseNegotiate implements step 5: the kernel allocates and maps the
// destination.
func (st *moveState) phaseNegotiate() error {
	dst, err := st.req.NegotiateDst(st.src, st.pages)
	if err != nil {
		return fmt.Errorf("runtime: move negotiation failed: %w", err)
	}
	st.dst = dst
	st.bd.MoveCycles += st.pages * cycPageAlloc
	return nil
}

// phasePatchEscapes implements steps 7-8: patch every escape of every
// affected allocation so each pointer names the address its target will
// have after the move. A location whose value no longer points into the
// moved range (it was overwritten since) is left alone. Escape density is
// what scales the pause (Table 3). The undo log opens here: the destination
// exists, and every later mutation is recorded before it is applied.
func (st *moveState) phasePatchEscapes() error {
	st.txn.open = true
	st.locs, st.ends = st.r.Table.EscapeLocsOf(st.affected, st.locs, st.ends)
	i := 0
	for _, end := range st.ends {
		st.bd.AllocsMoved++
		for ; i < end; i++ {
			loc := st.locs[i]
			st.bd.PatchCycles += cycEscapePatch
			val := st.r.loadEscape(loc)
			if val >= st.src && val < st.src+st.length {
				if st.inj.Should(fault.PatchFail) {
					return &fault.Error{Point: fault.PatchFail, Detail: fmt.Sprintf("escape at %#x", loc)}
				}
				st.txn.memWrites = append(st.txn.memWrites, memWrite{loc: loc, old: val})
				st.r.storeEscape(loc, val-st.src+st.dst)
				st.bd.EscapesPatched++
			}
		}
	}
	return st.inj.Fail(fault.MoveAbort, "after escape patch")
}

// phasePatchRegisters patches in-register pointers (dumped by the world
// stop).
func (st *moveState) phasePatchRegisters() error {
	for _, rs := range st.regs {
		vals := rs.Regs()
		for i, v := range vals {
			st.bd.RegCycles += cycRegScan
			if v >= st.src && v < st.src+st.length {
				st.txn.regWrites = append(st.txn.regWrites, regWrite{rs: rs, i: i, old: v})
				rs.SetReg(i, v-st.src+st.dst)
				st.bd.RegCycles += cycRegPatch
				st.bd.RegsPatched++
			}
		}
	}
	return st.inj.Fail(fault.MoveAbort, "after register patch")
}

// phaseRebase performs the table maintenance: rebase the moved allocations,
// in one table call, and any escape locations that themselves live in the
// moved range — for a swap, into the slot's poison range and back out of it.
func (st *moveState) phaseRebase() error {
	st.r.Table.Rebase(st.affected, st.src, st.dst)
	st.txn.rebased = true
	moved := st.r.rebaseEscapeLocs(st.src, st.src+st.length, st.dst)
	st.txn.escMoved = true
	st.bd.PatchCycles += uint64(moved) * cycEscapePatch
	return st.inj.Fail(fault.MoveAbort, "before data copy")
}

// phaseCopy implements step 9: move the data.
func (st *moveState) phaseCopy() error {
	if err := st.r.mem.Move(st.dst, st.src, st.length); err != nil {
		return fmt.Errorf("runtime: data move failed: %w", err)
	}
	st.txn.copied = true
	st.bd.MoveCycles += st.length * cycPerByteMove
	st.bd.PagesMoved = st.pages
	return nil
}

// phaseCommit implements step 10: retire the source frames. RetireSrc is
// the commit point — once the kernel retires the source the move is final.
func (st *moveState) phaseCommit() error {
	if err := st.req.RetireSrc(st.src, st.pages); err != nil {
		return fmt.Errorf("runtime: source retire failed: %w", err)
	}
	return nil
}

// fail unwinds a failed phase. Before the undo log opens nothing has
// mutated: a page move is vetoed, any other kind simply fails. After it,
// the undo log rolls the address space back to the exact pre-move state.
// A move's pause observed at the abort is the partial breakdown: the work
// done before the failure. A swap observes a pause only when it completes.
func (st *moveState) fail(cause error) error {
	if st.kind < kindSwapOut {
		st.r.observePause("move_abort", st.bd.TotalCycles())
	}
	if st.txn.open {
		return st.r.rollbackMove(st, cause)
	}
	if st.kind == kindPage {
		st.req.Veto()
	}
	return cause
}

// moveTxn is the undo log of one in-flight move: every mutation made
// once the destination exists (open), recorded before it is applied. The
// other booleans mark the all-or-nothing table/copy steps; the write logs keep
// original values in application order so rollback can restore them in
// reverse.
type moveTxn struct {
	memWrites []memWrite // escape-location rewrites
	regWrites []regWrite // saved-register rewrites
	rebased   bool       // the affected allocations rebased src->dst
	escMoved  bool       // escape locations rebased src->dst
	copied    bool       // data copied to dst (source zeroed)
	open      bool       // a patch may have been applied: a failure rolls back
}

type memWrite struct{ loc, old uint64 }

type regWrite struct {
	rs  RegSet
	i   int
	old uint64
}

// rollbackMove restores the exact pre-move state after an abort: undo the
// data copy, rebase tables back, restore registers and memory words in
// reverse application order. A page move then returns the negotiated
// destination to the kernel — whose region release raises
// EventInvalidateRange, so the VM's guard/translation caches drop anything
// covering the stillborn destination — and counts as a veto in the kernel's
// accounting; any other kind's destination is its caller's or a swap slot's.
// A swap's copy is its last phase, so a swap never has a copy to undo.
// Returns the error the failed move reports, wrapping cause.
func (r *Runtime) rollbackMove(st *moveState, cause error) error {
	txn, src, dst, length := &st.txn, st.src, st.dst, st.length
	if txn.copied {
		if err := r.mem.Move(src, dst, length); err != nil {
			return fmt.Errorf("runtime: rollback copy-back failed: %v (aborting move: %w)", err, cause)
		}
	}
	if txn.escMoved {
		r.rebaseEscapeLocs(dst, dst+length, src)
	}
	if txn.rebased {
		r.Table.Rebase(st.affected, dst, src)
	}
	for i := len(txn.regWrites) - 1; i >= 0; i-- {
		w := txn.regWrites[i]
		w.rs.SetReg(w.i, w.old)
	}
	for i := len(txn.memWrites) - 1; i >= 0; i-- {
		w := txn.memWrites[i]
		r.storeEscape(w.loc, w.old)
	}
	if st.kind == kindPage {
		if err := st.req.AbortDst(dst, st.pages); err != nil {
			return fmt.Errorf("runtime: rollback destination release failed: %v (aborting move: %w)", err, cause)
		}
		st.req.Veto()
	}
	r.Stats.MoveRollbacks.Inc()
	if tr := r.tracer(); tr != nil {
		tr.Instant("fault.rollback", "fault",
			obs.A("src", src), obs.A("dst", dst), obs.A("bytes", length),
			obs.A("cause", cause.Error()))
	}
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
// resident allocation with the most escapes — the page the Figure 9 experiment
// repeatedly moves ("the runtime selects a page that overlaps the
// allocation with the most pointer escapes"). One descent of the allocation
// tree answers it, along the subtree escape maxima (rbTree.mostEscaped), not
// a walk. caratdebug builds check every answer against the walk.
func (r *Runtime) WorstCasePage() (uint64, bool) {
	r.Flush()
	best := r.Table.mostEscaped()
	if debugInvariants {
		if walk := r.mostEscapedWhere(func(*Allocation) bool { return true }); walk != best {
			panic(fmt.Sprintf("runtime: the tree's pick chose %v, the walk %v", best, walk))
		}
	}
	if best == nil {
		return 0, false
	}
	return alignDown(best.Base), true
}

// mostEscapedWhere returns the allocation with the most escapes among those
// eligible accepts; of several with that many, the one at the lowest address.
// One walk of the allocations, reading a count from each: the
// allocation-granularity ablation's filtered pick, which the subtree maxima
// do not serve. A swapped-out allocation is never eligible.
func (r *Runtime) mostEscapedWhere(eligible func(*Allocation) bool) *Allocation {
	r.Flush()
	var best *Allocation
	bestN := -1
	r.Table.ForEach(func(a *Allocation) bool {
		if n := a.EscapeCount(); n > bestN && !kernel.IsPoison(a.Base) && eligible(a) {
			best, bestN = a, n
		}
		return true
	})
	return best
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

func alignDown(a uint64) uint64 { return a &^ (kernel.PageSize - 1) }
func alignUp(a uint64) uint64   { return (a + kernel.PageSize - 1) &^ (kernel.PageSize - 1) }
