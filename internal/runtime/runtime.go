package runtime

import (
	"fmt"
	"math/bits"
	"sync"

	"carat/internal/fault"
	"carat/internal/kernel"
	"carat/internal/obs"
)

// World is how the runtime reaches the program's threads. The VM
// implements it: StopTheWorld forces every thread to a safepoint — the
// moral equivalent of the signal handlers in Figure 8 dumping register
// state on their stacks — and returns the threads' register snapshots for
// patching. ResumeTheWorld releases the barrier, letting every thread run
// to its next safepoint.
//
// Contract (verified by the internal/worldtest conformance suite):
//
//   - One operation may stop and resume the world several times (once per
//     bounded pause window, see pause.go). RegSet handles returned by the
//     first stop stay valid across later ResumeTheWorld/StopTheWorld cycles
//     — patching continues on the same snapshots, and values written
//     through them are visible after the next stop.
//   - Nested stops are rejected: calling StopTheWorld while the world is
//     already stopped panics. The move protocol never nests stops; a nest
//     means re-entrancy the protocol cannot survive.
type World interface {
	StopTheWorld() []RegSet
	ResumeTheWorld()
}

// RegSet exposes one stopped thread's pointer-bearing registers.
type RegSet interface {
	// Regs returns the register values.
	Regs() []uint64
	// SetReg patches register i.
	SetReg(i int, v uint64)
}

// noWorld is used when the runtime runs without live threads (unit tests,
// offline table manipulation, the mmpolicy pressure harness): there is
// simply nobody to stop, but it still enforces the no-nested-stops
// contract.
type noWorld struct{ stopped bool }

func (w *noWorld) StopTheWorld() []RegSet {
	if w.stopped {
		panic("runtime: nested world stop")
	}
	w.stopped = true
	return nil
}
func (w *noWorld) ResumeTheWorld() { w.stopped = false }

// Stats is what the runtime counts (Figures 5-7), in plain fields that start
// at zero and reach a registry only through Publish. The runtime layer owns
// allocation/escape *tracking* and the per-move cost breakdown — page
// lifecycle counts are carat.kernel.*'s (DESIGN.md "Observability").
type Stats struct {
	Allocs        obs.Counter // carat.alloc callbacks
	Frees         obs.Counter // carat.free callbacks
	EscapeEvents  obs.Counter // carat.escape callbacks (pre-batching)
	EscapesLive   obs.Gauge   // escapes currently tracked
	BatchFlushes  obs.Counter
	UntrackedEsc  obs.Counter // escapes whose target was not a tracked allocation
	TrackingCycle obs.Counter // modeled cycles of the program's tracking callbacks: what a run bills to its clock
	LoadCycles    obs.Counter // modeled cycles of load-time registration (TrackStatic, TrackStaticEscape): never billed
	SwapOuts      obs.Counter
	SwapIns       obs.Counter
	SwapCycles    obs.Counter // modeled world-stopped cycles across all swaps
	Moves         obs.Counter // completed kernel-initiated moves
	MoveCycles    obs.Counter // total modeled cycles across all moves
	MoveRollbacks obs.Counter // aborted moves rolled back to the pre-move state
	BatchPauses   obs.Counter // window boundaries crossed (resume + re-stop between batches); 0 at pause budget 0
	FlushRetries  obs.Counter // escape-buffer flushes retried after an injected failure
	MemoHits      obs.Gauge   // memo fast-path hits on escape resolution
	MemoMisses    obs.Gauge   // memo misses (full tree descent)
	RebaseVisited obs.Counter // reverse-index entries RebaseEscapeLocs examined
	RebaseMoved   obs.Counter // reverse-index entries it rewrote: visited/moved says whether a move scanned the table
}

// counterNames are the published names of Stats' counters, in counters()
// order. Both kinds of tracking cycles publish as carat.runtime.tracking_cycles.
var counterNames = [...]string{
	"carat.runtime.allocs",
	"carat.runtime.frees",
	"carat.runtime.escape_events",
	"carat.runtime.batch_flushes",
	"carat.runtime.untracked_escapes",
	"carat.runtime.tracking_cycles",
	"carat.runtime.tracking_cycles",
	"carat.runtime.swap_outs",
	"carat.runtime.swap_ins",
	"carat.runtime.swap_cycles",
	"carat.runtime.moves",
	"carat.runtime.move_cycles",
	"carat.runtime.move_rollbacks",
	"carat.runtime.batch_pauses",
	"carat.runtime.flush_retries",
	"carat.runtime.table.rebase_visited",
	"carat.runtime.table.rebase_moved",
}

func (s *Stats) counters() [len(counterNames)]*obs.Counter {
	return [...]*obs.Counter{
		&s.Allocs, &s.Frees, &s.EscapeEvents, &s.BatchFlushes, &s.UntrackedEsc,
		&s.TrackingCycle, &s.LoadCycles, &s.SwapOuts, &s.SwapIns, &s.SwapCycles,
		&s.Moves, &s.MoveCycles, &s.MoveRollbacks, &s.BatchPauses, &s.FlushRetries,
		&s.RebaseVisited, &s.RebaseMoved,
	}
}

// pauseHists are the runtime's histograms, allocated at its first world
// stop: a run that never stops the world carries none.
type pauseHists struct {
	move  obs.Histogram                   // per-move total cycles (carat.runtime.move_cycles_hist)
	all   obs.Histogram                   // every pause (PauseHist)
	cause [len(PauseCauses)]obs.Histogram // PauseHist + "." + PauseCauses[i]
}

// Publish adds into s what the runtime counted since its last Publish, so
// each count lands once. gauges also sets the point-in-time gauges, which
// only the owner of a whole machine should. A world stop publishes itself
// when it ends (without gauges); the runtime's owner publishes the rest at
// its own boundaries (a VM's Run and Release, the mmpolicy harness).
func (r *Runtime) Publish(s obs.Sink, gauges bool) {
	r.pubMu.Lock()
	defer r.pubMu.Unlock()
	for i, c := range r.Stats.counters() {
		v := c.Get()
		if d := v - r.published[i]; d > 0 || !r.everPublished {
			s.Add(counterNames[i], d)
			r.published[i] = v
		}
	}
	if h := r.pauses; h != nil {
		s.Drain("carat.runtime.move_cycles_hist", &h.move)
		s.Drain(PauseHist, &h.all)
		for i := range h.cause {
			if h.cause[i].Count() > 0 {
				s.Drain(PauseHist+"."+PauseCauses[i], &h.cause[i])
			}
		}
	} else if !r.everPublished {
		s.Drain("carat.runtime.move_cycles_hist", nil)
		s.Drain(PauseHist, nil)
	}
	if gauges {
		s.Set("carat.runtime.escapes_live", r.Stats.EscapesLive.Get())
		s.Set("carat.runtime.table.memo_hits", r.Stats.MemoHits.Get())
		s.Set("carat.runtime.table.memo_misses", r.Stats.MemoMisses.Get())
	}
	r.everPublished = true
}

// publishStop is a world stop's own publish, into the runtime's registry.
func (r *Runtime) publishStop() {
	r.Obs.Publish(func(s obs.Sink) { r.Publish(s, false) })
}

// Modeled per-operation tracking costs in cycles. An allocation insert is
// a red/black tree insert (pointer chasing, ~L2 latencies); an escape is
// an amortized batched hash insert. These constants put the tracking
// overhead in the low single-digit percent range the paper measures
// (Figure 7: geomean 1.9%).
const (
	cycAllocInsert = 40
	cycFree        = 30
	cycEscapeEnq   = 2  // append to batch buffer
	cycEscapeProc  = 10 // table lookup + set insert at flush time
)

// Runtime is the CARAT runtime linked into the program (§4.2). It keeps
// the Allocation Table and escape map current via the injected callbacks,
// and executes the kernel's protection and mapping change requests.
//
// Concurrency: the table is internally sharded (see AllocationTable), so
// the tracking callbacks take no runtime-wide lock — TrackEscape appends
// to a per-thread EscapeBuffer and the occasional flush runs under the
// shard locks. opMu serializes the heavyweight map-changing operations
// (moves, swaps, protect) against each other; stateMu guards the cold
// registration state. No lock is ever held while user callbacks (move and
// invalidation listeners) run, so a listener may freely re-enter
// TrackAlloc/TrackFree or even start another move.
type Runtime struct {
	Table *AllocationTable
	Stats Stats

	// Obs is the registry a world stop publishes into when it ends (see
	// Publish): the machine's, given at construction.
	Obs *obs.Registry

	// pubMu guards the counts last published and the histograms (inside a registry's lock).
	pubMu         sync.Mutex
	published     [len(counterNames)]uint64
	everPublished bool
	pauses        *pauseHists

	mem *kernel.PhysMem

	// opMu serializes moves, swaps, and protect flips. It is released
	// before listeners fire.
	opMu sync.Mutex

	// stateMu guards the fields below (registration-time state and the
	// swap-slot directory).
	stateMu       sync.Mutex
	tr            *obs.Tracer
	inj           *fault.Injector
	world         World
	bufs          []*EscapeBuffer
	moveListeners []func(src, dst, length uint64)
	invListeners  []func(base, length uint64)

	// swapSlots holds evicted allocations (see swap.go); a nil entry is a
	// slot that has been swapped back in. Guarded by opMu.
	swapSlots []*swapRecord

	// MoveStats collects one breakdown per completed move. Appends happen
	// under opMu; readers (experiment harnesses) read between runs.
	MoveStats []MoveBreakdown

	// defBuf is the escape buffer behind the plain TrackEscape entry
	// point; batchMax is the per-buffer flush threshold.
	defBuf   *EscapeBuffer
	batchMax int

	// pauseBudget is the max-pause budget in modeled cycles (see
	// SetPauseBudget). Guarded by stateMu.
	pauseBudget uint64
}

// SetPauseBudget sets the longest modeled world-stop pause, in cycles, a
// move or swap may impose. 0 (the default) is unbounded: each operation is
// one stop covering all of its work. A positive budget slices the
// stop-window work into windows of BatchForBudget(cycles) escape patches,
// resuming the mutators in between under the guard-level forwarding
// window, so no recorded pause exceeds PauseBound of that batch (budgets
// below PauseBound(MinMoveBatch) clamp up to it). The budget never changes
// the program clock or the fault-injection draw sequence — modeled cycles
// and memory digests are byte-identical at every budget.
func (r *Runtime) SetPauseBudget(cycles uint64) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	r.pauseBudget = cycles
}

// AddMoveListener registers fn to run after every completed move, while
// the world is still stopped. Listeners run outside all runtime locks: a
// listener may re-enter the runtime (TrackAlloc, TrackFree, even another
// move).
func (r *Runtime) AddMoveListener(fn func(src, dst, length uint64)) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	r.moveListeners = append(r.moveListeners, fn)
}

// AddInvalidationListener registers fn to run after an operation changed
// the address map without going through the move protocol — swap-out and
// swap-in — with the affected byte range. The VM uses this to invalidate
// its per-thread guard/translation caches; mmpolicy-driven swaps reach the
// VM the same way. Listeners run outside all runtime locks.
func (r *Runtime) AddInvalidationListener(fn func(base, length uint64)) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	r.invListeners = append(r.invListeners, fn)
}

func (r *Runtime) copyMoveListeners() []func(src, dst, length uint64) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	out := make([]func(src, dst, length uint64), len(r.moveListeners))
	copy(out, r.moveListeners)
	return out
}

func (r *Runtime) copyInvListeners() []func(base, length uint64) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	out := make([]func(base, length uint64), len(r.invListeners))
	copy(out, r.invListeners)
	return out
}

// notifyInvalidate runs the invalidation listeners for [base, base+length).
func (r *Runtime) notifyInvalidate(base, length uint64) {
	for _, fn := range r.copyInvListeners() {
		fn(base, length)
	}
}

// PauseHist names the all-causes world-stop pause histogram. Every
// stop-the-world window — moves (including aborted ones), protection
// flips, swap-outs, swap-ins — observes its modeled duration here and
// into a per-cause histogram named PauseHist + "." + cause. The p50/p95/
// p99 of this histogram are the bounded-pause evidence the incremental-
// move work will be judged against; observations never feed back into
// the VM's cycle count, so attaching the histogram cannot perturb
// modeled results.
const PauseHist = "carat.runtime.pause_cycles"

// PauseCauses enumerates the world-stop causes the runtime attributes
// pauses to (the per-cause histogram suffixes).
var PauseCauses = [...]string{"move", "move_abort", "protect", "swap_out", "swap_in"}

// hists returns the histograms, allocated at the first stop; pubMu is held.
func (r *Runtime) hists() *pauseHists {
	if r.pauses == nil {
		r.pauses = new(pauseHists)
	}
	return r.pauses
}

// observePause records one world-stop window of the given modeled length.
// Observe-only: callers must not charge cycles to the program clock here.
func (r *Runtime) observePause(cause string, cycles uint64) {
	r.pubMu.Lock()
	h := r.hists()
	h.all.Observe(cycles)
	for i, c := range PauseCauses {
		if c == cause {
			h.cause[i].Observe(cycles)
		}
	}
	r.pubMu.Unlock()
	r.tracer().Instant("pause", "protocol",
		obs.A("cause", cause), obs.A("cycles", cycles))
}

type escapeEvent struct {
	loc, val uint64
}

// DefaultBatchSize is the escape batch flush threshold.
const DefaultBatchSize = 1024

// New creates a runtime over the given physical memory. world may be nil
// when no threads exist yet. World stops publish into reg, the machine's
// registry (a private one if nil).
func New(mem *kernel.PhysMem, world World, reg *obs.Registry) *Runtime {
	if world == nil {
		world = &noWorld{}
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Runtime{
		Table:    NewAllocationTable(),
		Obs:      reg,
		mem:      mem,
		world:    world,
		batchMax: DefaultBatchSize,
	}
	r.defBuf = r.NewEscapeBuffer()
	return r
}

// SetTracer attaches an event tracer (nil disables tracing).
func (r *Runtime) SetTracer(tr *obs.Tracer) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	r.tr = tr
}

func (r *Runtime) tracer() *obs.Tracer {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	return r.tr
}

// SetInjector attaches a fault injector (nil disables injection). The
// runtime's injection points are mid-move aborts at Fig-8 step boundaries,
// per-escape patch failures, swap I/O errors and delays, and escape-buffer
// flush failures; see internal/fault.
func (r *Runtime) SetInjector(in *fault.Injector) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	r.inj = in
}

func (r *Runtime) injector() *fault.Injector {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	return r.inj
}

// SetWorld installs the thread controller (the VM does this at startup).
func (r *Runtime) SetWorld(w World) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	r.world = w
}

func (r *Runtime) getWorld() World {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	return r.world
}

// TrackAlloc is the carat.alloc callback: a new allocation [base,
// base+length) exists.
func (r *Runtime) TrackAlloc(base, length uint64) error {
	return r.trackAlloc(base, length, false)
}

// TrackStatic records a load-time (static) allocation: a global, the
// stack, or program code. Its cost is load work (Stats.LoadCycles), which
// no run bills to its clock.
func (r *Runtime) TrackStatic(base, length uint64) error {
	return r.trackAlloc(base, length, true)
}

func (r *Runtime) trackAlloc(base, length uint64, static bool) error {
	if _, err := r.Table.Insert(base, length, static); err != nil {
		return err
	}
	r.Stats.Allocs.Inc()
	cycles := &r.Stats.TrackingCycle
	if static {
		cycles = &r.Stats.LoadCycles
	}
	cycles.Add(cycAllocInsert)
	return nil
}

// TrackFree is the carat.free callback.
func (r *Runtime) TrackFree(base uint64) error {
	// Pending escapes may reference the dying allocation: flush first so
	// stale batch entries cannot resurrect it.
	r.Flush()
	a := r.Table.Remove(base)
	if a == nil {
		return fmt.Errorf("runtime: free of untracked allocation %#x", base)
	}
	if a.Static {
		// Reinsert: freeing a static allocation is a program bug, and the
		// table must stay consistent.
		_, _ = r.Table.Insert(a.Base, a.Len, true)
		return fmt.Errorf("runtime: free of static allocation %#x", base)
	}
	r.Stats.Frees.Inc()
	r.Stats.TrackingCycle.Add(cycFree)
	return nil
}

// EscapeBuffer is a per-thread escape-event batch (§4.2: "The Allocation
// Map changes slowly, while the Allocation to Escape Map changes quickly.
// By batching the latter, we can mitigate redundant/outdated work.").
// Each VM thread owns one, so the hot tracking path contends on nothing
// wider than its own buffer; the batch drains into the sharded table at
// the flush threshold, at world stops, and at queries.
type EscapeBuffer struct {
	r      *Runtime
	mu     sync.Mutex
	events []escapeEvent

	// seen is the flush's de-dupe scratch: an open-addressed table from a
	// location to its position in the batch. A slot counts as occupied only
	// if it carries the current flush's stamp, so starting a flush costs
	// nothing however large the table has grown — TrackFree flushes batches
	// of a handful of events, and clearing a full-batch-sized table on each
	// of those would cost more than the flush.
	seen  []seenSlot
	stamp uint32
}

type seenSlot struct {
	loc   uint64
	stamp uint32
	pos   uint32
}

// NewEscapeBuffer creates and registers a per-thread escape buffer. The
// runtime drains all registered buffers at world stops and queries.
func (r *Runtime) NewEscapeBuffer() *EscapeBuffer {
	b := &EscapeBuffer{r: r}
	r.stateMu.Lock()
	r.bufs = append(r.bufs, b)
	r.stateMu.Unlock()
	return b
}

// buffers snapshots the registered escape buffers. The list only grows, by
// append, so the snapshot can share its backing array: nothing the snapshot
// reaches is written again.
func (r *Runtime) buffers() []*EscapeBuffer {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	return r.bufs[:len(r.bufs):len(r.bufs)]
}

// Track appends one escape event; the buffer self-flushes at the batch
// threshold.
func (b *EscapeBuffer) Track(loc, val uint64) { b.track(loc, val, &b.r.Stats.TrackingCycle) }

// track is Track charging the enqueue to cycles.
func (b *EscapeBuffer) track(loc, val uint64, cycles *obs.Counter) {
	r := b.r
	r.Stats.EscapeEvents.Inc()
	cycles.Add(cycEscapeEnq)
	b.mu.Lock()
	b.events = append(b.events, escapeEvent{loc, val})
	full := len(b.events) >= r.batchMax
	b.mu.Unlock()
	if full {
		b.Flush()
	}
}

// Flush drains this buffer into the table, in place: the buffer stays locked
// for the drain, which delays nobody but a second flusher of the same buffer
// (its owner is the one flushing, or is stopped). An injected flush failure
// is retried to completion: moves and swaps patch from the escape map under a
// stopped world, so a flush that silently gave up would leave them patching
// from stale data — the drain must land before this returns.
func (b *EscapeBuffer) Flush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.r.injector().Should(fault.FlushFail) {
		b.r.Stats.FlushRetries.Inc()
	}
	b.r.apply(b.dedupe())
	b.events = b.events[:0]
}

// dedupe compacts the batch in place: within a batch only the last write to
// a location matters, so each location keeps the position of its first event
// and the value of its last (the batching win the paper describes: outdated
// work is dropped). The order of first occurrence is what the table's memos
// see, so it is part of the model. The caller holds b.mu.
func (b *EscapeBuffer) dedupe() []escapeEvent {
	ev := b.events
	if len(ev) < 2 {
		return ev
	}
	if len(b.seen) < 2*len(ev) {
		b.seen = make([]seenSlot, 1<<bits.Len(uint(2*len(ev)-1)))
		b.stamp = 0
	}
	if b.stamp++; b.stamp == 0 { // wrapped: stamps of 2^32 flushes ago must not read as current
		clear(b.seen)
		b.stamp = 1
	}
	mask := uint64(len(b.seen) - 1)
	n := 0
	for _, e := range ev {
		for i := e.loc * 0x9E3779B97F4A7C15 >> 32 & mask; ; i = (i + 1) & mask {
			slot := &b.seen[i]
			if slot.stamp != b.stamp {
				*slot = seenSlot{loc: e.loc, stamp: b.stamp, pos: uint32(n)}
				ev[n] = e
				n++
				break
			}
			if slot.loc == e.loc {
				ev[slot.pos].val = e.val
				break
			}
		}
	}
	return ev[:n]
}

func (b *EscapeBuffer) footprint() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return uint64(cap(b.events)) * 16
}

// TrackEscape is the carat.escape callback: memory location loc now holds
// the pointer value val. Events are batched through the default buffer;
// threaded callers use a dedicated EscapeBuffer instead.
func (r *Runtime) TrackEscape(loc, val uint64) { r.defBuf.Track(loc, val) }

// TrackStaticEscape is TrackEscape for a pointer the loader wrote (a global
// initializer): like TrackStatic, its enqueue is load work.
func (r *Runtime) TrackStaticEscape(loc, val uint64) {
	r.defBuf.track(loc, val, &r.Stats.LoadCycles)
}

// Flush drains every registered escape buffer into the table.
func (r *Runtime) Flush() {
	for _, b := range r.buffers() {
		b.Flush()
	}
}

// apply drains one de-duplicated batch into the sharded table.
func (r *Runtime) apply(events []escapeEvent) {
	if len(events) == 0 {
		return
	}
	for _, e := range events {
		if kernel.IsPoison(e.val) || e.val == 0 {
			r.Table.RemoveEscape(e.loc)
			continue
		}
		if !r.Table.AddEscape(e.loc, e.val) {
			r.Stats.UntrackedEsc.Inc()
		}
		r.Stats.TrackingCycle.Add(cycEscapeProc)
	}
	r.Stats.BatchFlushes.Inc()
	r.Stats.EscapesLive.Set(uint64(r.Table.EscapeCount()))
	hits, misses := r.Table.MemoStats()
	r.Stats.MemoHits.Set(hits)
	r.Stats.MemoMisses.Set(misses)
}

// rebaseEscapeLocs is Table.RebaseEscapeLocs with its work counted: how many
// reverse-index entries it looked at to find the ones it moved.
func (r *Runtime) rebaseEscapeLocs(lo, hi, newLo uint64) int {
	moved, visited := r.Table.RebaseEscapeLocs(lo, hi, newLo)
	r.Stats.RebaseVisited.Add(uint64(visited))
	r.Stats.RebaseMoved.Add(uint64(moved))
	return moved
}

// UntrackStackRange drops every non-static allocation fully inside
// [lo, hi): the runtime's handling of stack-frame destruction. The VM
// calls it when a function activation returns, destroying its allocas
// (§4.1.2: "The runtime handles static and stack allocations as well").
func (r *Runtime) UntrackStackRange(lo, hi uint64) {
	r.Flush()
	var dead []uint64
	for _, a := range r.Table.Overlapping(lo, hi) {
		if !a.Static && a.Base >= lo && a.End() <= hi {
			dead = append(dead, a.Base)
		}
	}
	for _, base := range dead {
		r.Table.Remove(base)
	}
}

// tombstoneBytes is the record the prototype retains per freed allocation
// (allocation history kept for diagnostics and move auditing). This
// retention is what makes allocation-churn benchmarks like swaptions the
// memory-overhead outlier in Figure 6.
const tombstoneBytes = 48

// MemoryOverheadBytes reports the tracking structures' footprint
// (Figure 6): live table + escape map, the batch buffers, and the retained
// tombstones of freed allocations.
func (r *Runtime) MemoryOverheadBytes() uint64 {
	var batch uint64
	for _, b := range r.buffers() {
		batch += b.footprint()
	}
	return r.Table.MemoryFootprint() + batch + r.Stats.Frees.Get()*tombstoneBytes
}

// EscapeHistogram returns, for each tracked allocation, its escape count —
// the raw data behind Figure 5.
func (r *Runtime) EscapeHistogram() []int {
	r.Flush()
	var out []int
	r.Table.ForEach(func(a *Allocation) bool {
		out = append(out, a.EscapeCount())
		return true
	})
	return out
}
