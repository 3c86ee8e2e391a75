package runtime

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

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
//   - Each operation (move, swap, protection flip) stops the world exactly
//     once and resumes it exactly once: no guest instruction runs while it
//     is in flight, so it patches the stop's snapshots without a read
//     barrier.
//   - Nested stops are rejected: calling StopTheWorld while the world is
//     already stopped panics. The move protocol never nests stops; a nest
//     means re-entrancy the protocol cannot survive.
type World interface {
	StopTheWorld() []RegSet
	ResumeTheWorld()
}

// RegSet exposes one stopped thread's pointer-bearing registers.
type RegSet interface {
	// Regs returns the register values, in a slice the RegSet may reuse
	// at its next Regs.
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
	Moves         obs.Counter // completed moves, page and allocation
	MoveCycles    obs.Counter // total modeled cycles across all moves
	MoveRollbacks obs.Counter // aborted moves rolled back to the pre-move state
	FlushRetries  obs.Counter // escape-buffer flushes retried after an injected failure
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
	"carat.runtime.flush_retries",
	"carat.runtime.table.rebase_visited",
	"carat.runtime.table.rebase_moved",
}

func (s *Stats) counters() [len(counterNames)]*obs.Counter {
	return [...]*obs.Counter{
		&s.Allocs, &s.Frees, &s.EscapeEvents, &s.BatchFlushes, &s.UntrackedEsc,
		&s.TrackingCycle, &s.LoadCycles, &s.SwapOuts, &s.SwapIns, &s.SwapCycles,
		&s.Moves, &s.MoveCycles, &s.MoveRollbacks, &s.FlushRetries,
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
				s.Drain(pauseHistNames[i], &h.cause[i])
			}
		}
	} else if !r.everPublished {
		s.Drain("carat.runtime.move_cycles_hist", nil)
		s.Drain(PauseHist, nil)
	}
	if gauges {
		s.Set("carat.runtime.escapes_live", r.Stats.EscapesLive.Get())
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
// Concurrency: the table locks for itself (see AllocationTable), so the
// tracking callbacks take no runtime-wide lock — TrackEscape appends to a
// per-thread EscapeBuffer and the occasional flush runs under the table's
// escape lock. opMu serializes the heavyweight map-changing operations
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
	// before listeners fire. It guards mv, the state every move and swap
	// reuses (see mover).
	opMu sync.Mutex
	mv   *moveState

	// stateMu guards the fields below (registration-time state and the
	// swap-slot directory).
	stateMu       sync.Mutex
	tr            *obs.Tracer
	inj           *fault.Injector
	world         World
	bufs          []*EscapeBuffer
	moveListeners []func(src, dst, length uint64)
	invListeners  []func(base, length uint64)

	// swapSlots holds the bytes of swapped-out allocations, by slot (see
	// swap.go); a nil entry is a slot that has been swapped back in, and
	// freeSlots stacks those slots in the order they were freed. Guarded by
	// opMu.
	swapSlots [][]byte
	freeSlots []uint64

	// MoveStats collects one breakdown per completed move. Appends happen
	// under opMu; readers (experiment harnesses) read between runs.
	MoveStats []MoveBreakdown

	// defBuf is the escape buffer behind the plain TrackEscape entry
	// point.
	defBuf *EscapeBuffer
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

// AddInvalidationListener registers fn to run after a swap-out or a swap-in
// changed the address map, with the byte range it vacated or filled: a swap
// runs no move listener. The VM uses this to invalidate
// its guard/translation cache; mmpolicy-driven swaps reach the
// VM the same way. Listeners run outside all runtime locks.
func (r *Runtime) AddInvalidationListener(fn func(base, length uint64)) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	r.invListeners = append(r.invListeners, fn)
}

// moveListenerList and invListenerList snapshot the listener lists. Like
// the buffer list, they only grow, by append, so a snapshot can share the
// backing array.
func (r *Runtime) moveListenerList() []func(src, dst, length uint64) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	return r.moveListeners[:len(r.moveListeners):len(r.moveListeners)]
}

func (r *Runtime) invListenerList() []func(base, length uint64) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	return r.invListeners[:len(r.invListeners):len(r.invListeners)]
}

// notifyInvalidate runs the invalidation listeners for [base, base+length).
func (r *Runtime) notifyInvalidate(base, length uint64) {
	for _, fn := range r.invListenerList() {
		fn(base, length)
	}
}

// PauseHist names the all-causes world-stop pause histogram. Every world
// stop — moves (including aborted ones), protection flips, swap-outs,
// swap-ins — observes its modeled duration here and into a per-cause
// histogram named PauseHist + "." + cause. Observations never feed back
// into the VM's cycle count, so attaching the histogram cannot perturb
// modeled results.
const PauseHist = "carat.runtime.pause_cycles"

// PauseCauses enumerates the world-stop causes the runtime attributes
// pauses to (the per-cause histogram suffixes).
var PauseCauses = [...]string{"move", "move_abort", "protect", "swap_out", "swap_in"}

// pauseHistNames are the per-cause histogram names, PauseHist+"."+cause.
var pauseHistNames = func() (names [len(PauseCauses)]string) {
	for i, c := range PauseCauses {
		names[i] = PauseHist + "." + c
	}
	return names
}()

// hists returns the histograms, allocated at the first stop; pubMu is held.
func (r *Runtime) hists() *pauseHists {
	if r.pauses == nil {
		r.pauses = new(pauseHists)
	}
	return r.pauses
}

// observePause records one world stop of the given modeled length.
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
	if tr := r.tracer(); tr != nil {
		tr.Instant("pause", "protocol", obs.A("cause", cause), obs.A("cycles", cycles))
	}
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
		Table: NewAllocationTable(),
		Obs:   reg,
		mem:   mem,
		world: world,
	}
	r.defBuf = r.NewEscapeBuffer()
	return r
}

// Release hands the table's stock and every escape buffer's scratch back
// for the next runtime; their unflushed events are dropped. A no-op on the
// second call.
func (r *Runtime) Release() {
	r.Table.Release()
	for _, b := range r.buffers() {
		b.mu.Lock()
		if b.box != nil {
			b.peak = max(b.peak, len(b.events))
			*b.box, b.escapeScratch = escapeScratch{b.events[:0], b.seen, b.stamp}, escapeScratch{}
			scratches.Put(b.box)
			b.box = nil
		}
		b.mu.Unlock()
	}
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
	var a *Allocation
	if !kernel.IsPoison(base) { // a swapped-out allocation is not the program's to free
		a = r.Table.Remove(base)
	}
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
// wider than its own buffer; the batch drains into the table at the flush
// threshold, at world stops, and at queries.
type EscapeBuffer struct {
	r  *Runtime
	mu sync.Mutex
	escapeScratch
	// box is what Runtime.Release hands the scratch back in; nil once it has.
	box *escapeScratch
	// peak is the most events the batch has held.
	peak int
}

// escapeScratch is an escape buffer's batch and its flush's de-dupe scratch,
// which Runtime.Release recycles whole. seen is an open-addressed table from
// a location to its position in the batch; a slot counts as occupied only if
// it carries the current flush's stamp, so starting a flush costs nothing
// however large the table has grown — TrackFree flushes batches of a handful
// of events, and clearing a full-batch-sized table on each of those would
// cost more than the flush. The stamp travels with the table: read against a
// fresh stamp, a previous owner's slots would read as current.
type escapeScratch struct {
	events []escapeEvent
	seen   []seenSlot
	stamp  uint32
}

var scratches Pool[escapeScratch]

var scratchMade atomic.Uint64

// ScratchMade counts the escape-buffer scratch boxes the process has made.
func ScratchMade() uint64 { return scratchMade.Load() }

type seenSlot struct {
	loc   uint64
	stamp uint32
	pos   uint32
}

// NewEscapeBuffer creates and registers a per-thread escape buffer. The
// runtime drains all registered buffers at world stops and queries.
func (r *Runtime) NewEscapeBuffer() *EscapeBuffer {
	b := &EscapeBuffer{r: r, box: scratches.Get()}
	if b.box == nil {
		b.box = new(escapeScratch)
		scratchMade.Add(1)
	}
	b.escapeScratch, *b.box = *b.box, escapeScratch{}
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
	full := len(b.events) >= DefaultBatchSize
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
	b.peak = max(b.peak, len(b.events))
	b.events = b.events[:0]
}

// dedupe compacts the batch in place: within a batch only the last write to
// a location matters, so each location keeps the position of its first event
// and the value of its last (the batching win the paper describes: outdated
// work is dropped). The order of first occurrence is the order the batch's
// new escapes join their allocations' sets, and so the order a later move
// patches them in. The caller holds b.mu.
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

// footprint is the batch's bytes at the capacity a fresh batch grown one
// event at a time reaches: a recycled one's own is its previous owner's.
func (b *EscapeBuffer) footprint() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := max(b.peak, len(b.events))
	if n == 0 {
		return 0
	}
	i, _ := slices.BinarySearch(batchCaps, n)
	return uint64(batchCaps[min(i, len(batchCaps)-1)]) * 16
}

// batchCaps are the capacities append takes a batch through, up to one that
// holds a full batch.
var batchCaps = func() (caps []int) {
	var s []escapeEvent
	for len(s) < DefaultBatchSize {
		if s = append(s, escapeEvent{}); len(caps) == 0 || caps[len(caps)-1] != cap(s) {
			caps = append(caps, cap(s))
		}
	}
	return caps
}()

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

// apply drains one de-duplicated batch into the table.
func (r *Runtime) apply(events []escapeEvent) {
	if len(events) == 0 {
		return
	}
	for _, e := range events {
		// A swap-poison value points into a swapped-out allocation, which
		// the table keeps at its poison base: it is tracked like any
		// pointer, so a swap-in patches it. Null and the other poison kinds
		// point at nothing.
		if _, _, swapped := DecodeSwapPoison(e.val); e.val == 0 || kernel.IsPoison(e.val) && !swapped {
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
	for _, a := range r.Table.Overlapping(lo, hi, nil) {
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
