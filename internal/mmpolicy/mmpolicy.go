// Package mmpolicy is the kernel-side memory-management policy daemon the
// paper's §7 sketches as CARAT's payoff: once moves are cheap and
// runtime-mediated, the kernel can run real services — defragmentation to
// assemble superpage-sized contiguous runs, hot/cold tiering via swap, and
// NUMA-style migration — instead of relying on hardware virtual memory.
//
// The daemon runs on simulated cycles and drives the existing Figure 8
// move protocol (kernel.Process.RequestMove → runtime patch engine) and
// the swap machinery (runtime.SwapOut / SwapIn). It manages any number of
// processes over one shared physical memory; pressure.go adds a
// multi-process workload harness so fragmentation and eviction actually
// occur. Every decision is observable: carat.policy.* metrics, trace
// instants per decision, and a versioned carat.policy JSON document
// (schema.go).
package mmpolicy

import (
	"fmt"
	"math"
	"sync"

	"carat/internal/fault"
	"carat/internal/guard"
	"carat/internal/kernel"
	"carat/internal/obs"
	"carat/internal/runtime"
)

// RareMigration paces kernel-initiated migrations: it fires once each
// time the driving count (demand allocations for the paging model,
// retired instructions for the VM's move injector) advances Period past
// the previous firing. It implements kernel.Migrator, and replaces the
// hardcoded modulo injector that used to live in kernel/paging.go — the
// Table 2 model and the Figure 9 injector now share this one policy.
type RareMigration struct {
	Period uint64
	next   uint64
}

// NewRareMigration returns a migrator firing once per period. A zero
// period never fires.
func NewRareMigration(period uint64) *RareMigration {
	return &RareMigration{Period: period, next: period}
}

// Due implements kernel.Migrator.
func (r *RareMigration) Due(now uint64) bool {
	if r.Period == 0 || now < r.next {
		return false
	}
	r.next = now + r.Period
	return true
}

// Pending reports what Due(now) would return, without arming the next
// period. Hot paths use it to skip a safepoint entirely when no migration
// is due: Due has no side effect in exactly the cases Pending is false.
func (r *RareMigration) Pending(now uint64) bool {
	return r.Period != 0 && now >= r.next
}

// Policy is one pluggable management strategy the daemon runs per tick.
type Policy interface {
	Name() string
	// Tick examines the system and issues change requests. now is the
	// simulated cycle of the wakeup.
	Tick(d *Daemon, now uint64) error
}

// ManagedProc is one process under the daemon's management: its kernel
// process, its CARAT runtime, and the daemon's per-process bookkeeping
// (access heat for tiering, first-touch NUMA home, live swap slots).
type ManagedProc struct {
	Name string
	Proc *kernel.Process
	RT   *runtime.Runtime

	// mu guards the fields below. It is deliberately separate from the
	// daemon's lock: move listeners fire from inside the runtime's move
	// path (which a daemon tick itself triggers), so they must not need
	// the daemon lock.
	mu        sync.Mutex
	home      int                // NUMA home node, -1 until first touch
	heat      map[uint64]float64 // allocation base -> decayed access count
	swapPages map[uint64]uint64  // swap slot -> pages released at swap-out
}

// Heat returns the current access heat of the allocation based at base.
func (mp *ManagedProc) Heat(base uint64) float64 {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	return mp.heat[base]
}

// Home returns the process's first-touch NUMA home node (-1 if it has not
// touched memory yet).
func (mp *ManagedProc) Home() int {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	return mp.home
}

// forget drops an allocation's heat (freed or evicted).
func (mp *ManagedProc) forget(base uint64) {
	mp.mu.Lock()
	delete(mp.heat, base)
	mp.mu.Unlock()
}

// rebaseHeat relocates heat entries when the runtime moves allocations.
func (mp *ManagedProc) rebaseHeat(src, dst, length uint64) {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	type kv struct {
		base uint64
		heat float64
	}
	var moved []kv
	for base, h := range mp.heat {
		if base >= src && base < src+length {
			moved = append(moved, kv{base, h})
		}
	}
	for _, m := range moved {
		delete(mp.heat, m.base)
		mp.heat[m.base-src+dst] = m.heat
	}
}

// Stats is the daemon's typed view over its carat.policy.* metrics. The
// policy layer owns decision accounting — which service moved/evicted
// what and at what modeled cost; the underlying page and move mechanics
// remain owned by carat.kernel.* and carat.runtime.*.
type Stats struct {
	Ticks      *obs.Counter // daemon wakeups
	Decisions  *obs.Counter // every recorded decision (incl. vetoes)
	DefragMove *obs.Counter // compaction moves issued
	SwapOuts   *obs.Counter // tiering evictions
	SwapIns    *obs.Counter // poison-fault restores
	NUMAMoves  *obs.Counter // home-node migrations
	Accesses   *obs.Counter // RecordAccess calls (the tiering heat feed)
	MoveCycles *obs.Counter // modeled cycles of all decisions executed
	FragScore  *obs.Gauge   // FragStats.Score * 1000, updated per tick
	LargestRun *obs.Gauge   // largest contiguous free run, pages
	FreePages  *obs.Gauge

	// Failure-policy accounting (see tryMove and FaultIn): moves retried
	// after backoff, pages pinned after repeated failures, and swap-ins
	// retried past injected I/O errors.
	Retries     *obs.Counter
	Pins        *obs.Counter
	PinnedPages *obs.Gauge // carat.policy.pinned_pages
	SwapRetries *obs.Counter
}

func newStats(reg *obs.Registry) Stats {
	return Stats{
		Ticks:      reg.Counter("carat.policy.ticks"),
		Decisions:  reg.Counter("carat.policy.decisions"),
		DefragMove: reg.Counter("carat.policy.defrag_moves"),
		SwapOuts:   reg.Counter("carat.policy.tier_swap_outs"),
		SwapIns:    reg.Counter("carat.policy.tier_swap_ins"),
		NUMAMoves:  reg.Counter("carat.policy.numa_migrations"),
		Accesses:   reg.Counter("carat.policy.accesses"),
		MoveCycles: reg.Counter("carat.policy.move_cycles"),
		FragScore:  reg.Gauge("carat.policy.frag_score_milli"),
		LargestRun: reg.Gauge("carat.policy.largest_free_run"),
		FreePages:  reg.Gauge("carat.policy.free_pages"),

		Retries:     reg.Counter("carat.policy.move_retries"),
		Pins:        reg.Counter("carat.policy.pins"),
		PinnedPages: reg.Gauge("carat.policy.pinned_pages"),
		SwapRetries: reg.Counter("carat.policy.swap_retries"),
	}
}

// Modeled daemon costs in cycles, alongside the runtime's move-path
// constants: scans walk the allocator bitmap or region lists; swaps pay
// the world-stop barrier plus copy bandwidth (the runtime models the
// patching itself, the daemon accounts the I/O-side cost).
const (
	cycTickBase    = 500 // wakeup + policy dispatch
	cycPerPageScan = 1   // bitmap / heat / region scan, per page examined
	cycSwapBarrier = 400 // world-stop round trip for a swap
	cycSwapPerByte = 1   // swap copy, bytes per cycle
	cycFaultEntry  = 700 // poison-fault trap + handler dispatch

	// cycSwapSlowMax bounds an injected swap slow-path delay (a seek, a
	// congested device queue); maxSwapRetries bounds the swap-in retry
	// loop past injected I/O errors. Sized so that at the soak harness's
	// rate ceiling exhausting the retries is out of reach.
	cycSwapSlowMax = 5000
	maxSwapRetries = 16
)

// Daemon is the memory-management policy daemon. All entry points are
// mutex-guarded; within one simulated machine it is typically driven from
// the harness's single scheduling loop, but concurrent access is safe.
type Daemon struct {
	K *kernel.Kernel

	// PauseBudget is the max-pause budget (modeled cycles) the run was
	// configured with, recorded into the policy document. Informational:
	// the budget is enforced by the runtimes the harness configures, not by
	// the daemon. 0 = unbounded (one stop per operation).
	PauseBudget uint64

	mu        sync.Mutex
	procs     []*ManagedProc
	policies  []Policy
	stats     Stats
	tr        *obs.Tracer
	inj       *fault.Injector
	ticks     int
	decisions []Decision
	totals    Totals
	track     *obs.Track // "policy" phase stream when a sampler is attached

	// Failure policy for issued moves (see tryMove): per-source-page
	// failure records with exponential backoff, and the set of pages
	// pinned after repeated failures.
	moveFails map[uint64]*moveFailure
	pinned    map[uint64]bool

	fragBefore    *kernel.FragStats
	fragCaptured  bool
	pendingCycles uint64 // cycles consumed since the caller last collected
}

// New creates a daemon over k running the given policies each tick, in
// order. Metrics go to k's registry.
func New(k *kernel.Kernel, policies ...Policy) *Daemon {
	return &Daemon{
		K: k, policies: policies, stats: newStats(k.Obs),
		moveFails: make(map[uint64]*moveFailure),
		pinned:    make(map[uint64]bool),
	}
}

// SetTracer attaches an event tracer (nil disables tracing).
func (d *Daemon) SetTracer(tr *obs.Tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tr = tr
}

// AttachSampler registers the daemon as a track in the cycle-sampling
// profiler: the daemon's own scan/dispatch cycles plus the modeled cost
// of executed decisions fold into "policy"-phase samples at each tick.
func (d *Daemon) AttachSampler(s *obs.Sampler) {
	if s == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.track = s.NewTrack()
}

// SetInjector attaches a fault injector (nil disables injection). The
// daemon itself injects swap slow-path delays; it also owns the recovery
// side — retrying failed moves with backoff, pinning repeat offenders,
// and retrying swap-ins past injected I/O errors.
func (d *Daemon) SetInjector(in *fault.Injector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inj = in
}

func (d *Daemon) injector() *fault.Injector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inj
}

// Attach places a process (and its runtime) under management. The
// runtime's move listener keeps the daemon's heat map valid across moves.
func (d *Daemon) Attach(name string, p *kernel.Process, rt *runtime.Runtime) *ManagedProc {
	mp := &ManagedProc{
		Name: name, Proc: p, RT: rt,
		home:      -1,
		heat:      make(map[uint64]float64),
		swapPages: make(map[uint64]uint64),
	}
	rt.AddMoveListener(mp.rebaseHeat)
	d.mu.Lock()
	d.procs = append(d.procs, mp)
	d.mu.Unlock()
	return mp
}

// Procs returns the managed processes in attach order.
func (d *Daemon) Procs() []*ManagedProc {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*ManagedProc(nil), d.procs...)
}

// RecordAccess feeds the tiering heat map: the process touched the
// allocation based at base. The first recorded access also fixes the
// process's NUMA home node (first-touch placement, like Linux's default
// NUMA policy).
func (d *Daemon) RecordAccess(mp *ManagedProc, base uint64) {
	d.stats.Accesses.Inc()
	node := d.node(base)
	mp.mu.Lock()
	mp.heat[base]++
	if mp.home < 0 {
		mp.home = node
	}
	mp.mu.Unlock()
}

// node maps a physical address to a modeled NUMA node: node 0 is the
// lower half of physical memory, node 1 the upper half.
func (d *Daemon) node(addr uint64) int {
	half := d.K.Alloc.TotalPages() / 2
	if addr/kernel.PageSize < half {
		return 0
	}
	return 1
}

// nodePages returns node n's page window [start, start+pages).
func (d *Daemon) nodePages(n int) (start, pages uint64) {
	total := d.K.Alloc.TotalPages()
	half := total / 2
	if n == 0 {
		return 1, half - 1 // page 0 is reserved
	}
	return half, total - half
}

// owner finds the managed process whose region set contains addr.
func (d *Daemon) owner(addr uint64) (*ManagedProc, guard.Region, bool) {
	for _, mp := range d.procs {
		if reg, ok := mp.Proc.Regions.Find(addr); ok {
			return mp, reg, true
		}
	}
	return nil, guard.Region{}, false
}

// CaptureFragBefore snapshots the current fragmentation picture as the
// report's "before" state. Tick does this automatically on first wakeup;
// call it explicitly to measure from an earlier point.
func (d *Daemon) CaptureFragBefore() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.captureFragLocked()
}

func (d *Daemon) captureFragLocked() {
	if d.fragCaptured {
		return
	}
	fs := d.K.Alloc.FragStats()
	d.fragBefore = &fs
	d.fragCaptured = true
}

// Tick runs one daemon wakeup at simulated cycle now: every policy
// examines the system and may issue change requests. It returns the
// modeled cycles the wakeup consumed (daemon scans plus executed
// decisions) so the caller can advance its clock.
func (d *Daemon) Tick(now uint64) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.captureFragLocked()
	d.ticks++
	d.stats.Ticks.Inc()
	d.pendingCycles += cycTickBase
	d.totals.DaemonCycles += cycTickBase

	fs := d.K.Alloc.FragStats()
	d.stats.FragScore.Set(uint64(fs.Score * 1000))
	d.stats.LargestRun.Set(fs.LargestRun)
	d.stats.FreePages.Set(fs.FreePages)

	for _, pol := range d.policies {
		start := d.pendingCycles
		if err := pol.Tick(d, now); err != nil {
			return d.collectCycles(), fmt.Errorf("mmpolicy: %s: %w", pol.Name(), err)
		}
		d.tr.SpanAt("policy."+pol.Name(), "policy", now+start, d.pendingCycles-start,
			obs.A("tick", d.ticks))
	}
	if d.track != nil {
		d.track.FoldPhase("policy", d.totals.DaemonCycles+d.totals.MoveCycles)
	}
	return d.collectCycles(), nil
}

func (d *Daemon) collectCycles() uint64 {
	c := d.pendingCycles
	d.pendingCycles = 0
	return c
}

// chargeScan accounts modeled daemon scan work (bitmap walks, heat
// scans). Called by policies during Tick (daemon lock held).
func (d *Daemon) chargeScan(cycles uint64) {
	d.pendingCycles += cycles
	d.totals.DaemonCycles += cycles
}

// record logs one decision: into the document, the metrics registry, and
// the trace stream. Called with the daemon lock held.
func (d *Daemon) record(now uint64, policy, action string, proc string, base, pages, cycles uint64, reason string) {
	d.decisions = append(d.decisions, Decision{
		Tick: d.ticks, Cycle: now, Policy: policy, Action: action,
		Proc: proc, Base: base, Pages: pages, Cycles: cycles, Reason: reason,
	})
	d.pendingCycles += cycles
	d.stats.Decisions.Inc()
	d.stats.MoveCycles.Add(cycles)
	switch action {
	case ActionMove:
		d.totals.Moves++
		d.totals.MoveCycles += cycles
	case ActionSwapOut:
		d.totals.SwapOuts++
		d.totals.MoveCycles += cycles
	case ActionSwapIn:
		d.totals.SwapIns++
		d.totals.MoveCycles += cycles
	case ActionVeto:
		d.totals.Vetoes++
	case ActionPin:
		d.totals.Pins++
	}
	d.tr.InstantAt("policy."+action, "policy", now,
		obs.A("policy", policy), obs.A("proc", proc), obs.A("base", base),
		obs.A("pages", pages), obs.A("cycles", cycles), obs.A("reason", reason))
}

// Failure policy for policy-issued moves: a page whose move fails is
// retried on later ticks with exponentially growing backoff; after
// maxMoveRetries failures the page is pinned — the daemon stops trying to
// move it, trading layout quality for forward progress.
const (
	maxMoveRetries  = 4
	retryBackoffCyc = 20_000 // first-retry backoff, doubling per failure
)

// moveFailure tracks one source page's move-failure history.
type moveFailure struct {
	fails     int
	nextRetry uint64 // simulated cycle before which no retry is attempted
}

// tryMove wraps Process.RequestMove with the daemon's failure policy. On
// success it returns the result and true; the caller records the success
// decision (callers attach policy-specific reasons). On failure it
// records a veto — or, after repeated failures, a pin — updates the
// backoff state, and returns false. Pinned and backing-off pages return
// false without a decision record, so steady-state skips do not flood the
// document. Caller holds d.mu.
func (d *Daemon) tryMove(mp *ManagedProc, policy string, addr, pages, now uint64) (kernel.MoveResult, bool) {
	page := addr &^ (kernel.PageSize - 1)
	if d.pinned[page] {
		return kernel.MoveResult{}, false
	}
	f := d.moveFails[page]
	if f != nil {
		if now < f.nextRetry {
			return kernel.MoveResult{}, false
		}
		d.stats.Retries.Inc()
	}
	res, err := mp.Proc.RequestMove(addr, pages)
	if err == nil {
		delete(d.moveFails, page)
		return res, true
	}
	if f == nil {
		f = &moveFailure{}
		d.moveFails[page] = f
	}
	f.fails++
	f.nextRetry = now + retryBackoffCyc<<(f.fails-1)
	if f.fails >= maxMoveRetries {
		delete(d.moveFails, page)
		d.pinned[page] = true
		d.stats.Pins.Inc()
		d.stats.PinnedPages.Set(uint64(len(d.pinned)))
		d.record(now, policy, ActionPin, mp.Name, addr, pages, 0, err.Error())
		return kernel.MoveResult{}, false
	}
	d.record(now, policy, ActionVeto, mp.Name, addr, 0, 0, err.Error())
	return kernel.MoveResult{}, false
}

// coldestSwappable returns the swappable allocation with the lowest heat
// across all managed processes. Swappable means: heap (non-static), small
// enough for a swap slot, and page-granular (base and length page-aligned)
// so its frames can be released without touching a neighbor. Caller holds
// d.mu.
func (d *Daemon) coldestSwappable(skip map[uint64]bool) (*ManagedProc, uint64, uint64, bool) {
	var (
		bestProc *ManagedProc
		bestBase uint64
		bestLen  uint64
		bestHeat = math.Inf(1)
	)
	for _, mp := range d.procs {
		mp.mu.Lock()
		mp.RT.Table.ForEach(func(a *runtime.Allocation) bool {
			if a.Static || a.Len > swapMaxBytes || skip[a.Base] {
				return true
			}
			if a.Base%kernel.PageSize != 0 || a.Len%kernel.PageSize != 0 {
				return true
			}
			if h := mp.heat[a.Base]; h < bestHeat {
				bestProc, bestBase, bestLen, bestHeat = mp, a.Base, a.Len, h
			}
			return true
		})
		mp.mu.Unlock()
	}
	return bestProc, bestBase, bestLen, bestProc != nil
}

// evictColdest swaps out the coldest swappable allocation and releases its
// frames — the one reclaim step shared by the background tiering policy
// and the fault path's direct reclaim. It returns the modeled eviction
// cost, whether an eviction happened, and whether any candidate remained
// (false means reclaim is exhausted). A vetoed candidate is added to skip
// and reported as (0, false, true): the caller may retry. Caller holds
// d.mu.
func (d *Daemon) evictColdest(policy string, skip map[uint64]bool, now uint64, reason string) (uint64, bool, bool) {
	mp, base, length, ok := d.coldestSwappable(skip)
	if !ok {
		return 0, false, false
	}
	slot, err := mp.RT.SwapOut(base)
	if err != nil {
		skip[base] = true
		d.record(now, policy, ActionVeto, mp.Name, base, 0, 0, err.Error())
		return 0, false, true
	}
	pages := (length + kernel.PageSize - 1) / kernel.PageSize
	if err := mp.Proc.ReleaseRegion(base, pages*kernel.PageSize); err != nil {
		// The runtime and kernel disagree about this allocation: surface
		// loudly, this must not happen.
		panic(fmt.Sprintf("mmpolicy: release after swap-out: %v", err))
	}
	cost := uint64(cycSwapBarrier) + length*cycSwapPerByte + d.inj.Delay(fault.SwapDelay, cycSwapSlowMax)
	mp.forget(base)
	mp.mu.Lock()
	mp.swapPages[slot] = pages
	mp.mu.Unlock()
	d.record(now, policy, ActionSwapOut, mp.Name, base, pages, cost, reason)
	d.stats.SwapOuts.Inc()
	return cost, true, true
}

// FaultIn handles a poison fault on a swapped pointer (§2.2's fault
// path) at simulated cycle now: it decodes the slot, grants fresh frames,
// and swaps the allocation back in — the runtime patches every poisoned
// pointer forward. If no frames fit, it runs direct reclaim (evicting the
// coldest resident allocations) until the grant succeeds. It returns the
// allocation's new base address and the modeled fault cost in cycles.
func (d *Daemon) FaultIn(mp *ManagedProc, poison uint64, now uint64) (uint64, uint64, error) {
	slot, _, ok := runtime.DecodeSwapPoison(poison)
	if !ok {
		return 0, 0, fmt.Errorf("mmpolicy: fault on non-swap poison %#x", poison)
	}
	length, err := mp.RT.SwappedLen(slot)
	if err != nil {
		return 0, 0, err
	}
	var reclaimCost uint64
	newBase, err := mp.Proc.GrantRegion(length, guard.PermRW)
	if err != nil {
		// Direct reclaim: push other cold memory out to make room.
		d.mu.Lock()
		skip := make(map[uint64]bool)
		for tries := 0; err != nil && tries < 64; tries++ {
			c, evicted, any := d.evictColdest("tiering", skip, now, "direct reclaim")
			if !any {
				break
			}
			if !evicted {
				continue
			}
			reclaimCost += c
			newBase, err = mp.Proc.GrantRegion(length, guard.PermRW)
		}
		d.mu.Unlock()
		if err != nil {
			return 0, 0, fmt.Errorf("mmpolicy: swap-in grant failed after reclaim: %w", err)
		}
	}
	// An injected swap-in I/O error is transient: the fault handler
	// retries, paying another barrier round trip per attempt. Retrying is
	// safe because the runtime checks injection before mutating the slot.
	var retryCost uint64
	err = mp.RT.SwapIn(slot, newBase)
	for attempts := 1; err != nil && fault.Injected(err) && attempts < maxSwapRetries; attempts++ {
		d.stats.SwapRetries.Inc()
		retryCost += cycSwapBarrier
		err = mp.RT.SwapIn(slot, newBase)
	}
	if err != nil {
		// Give the granted frames back before surfacing the failure, so a
		// failed fault-in leaks nothing.
		pgs := (length + kernel.PageSize - 1) / kernel.PageSize
		_ = mp.Proc.ReleaseRegion(newBase, pgs*kernel.PageSize)
		return 0, 0, err
	}
	pages := (length + kernel.PageSize - 1) / kernel.PageSize
	cost := cycFaultEntry + cycSwapBarrier + length*cycSwapPerByte + retryCost +
		d.injector().Delay(fault.SwapDelay, cycSwapSlowMax)
	mp.mu.Lock()
	delete(mp.swapPages, slot)
	mp.mu.Unlock()

	d.mu.Lock()
	d.record(now, "tiering", ActionSwapIn, mp.Name, newBase, pages, cost, "poison fault")
	// The fault and reclaim costs are returned to the caller directly;
	// keep them out of the next Tick's collected cycles so they are not
	// charged twice.
	d.pendingCycles -= cost + reclaimCost
	d.stats.SwapIns.Inc()
	d.mu.Unlock()
	return newBase, cost + reclaimCost, nil
}

// lastBreakdown returns the runtime's most recent per-move cost
// decomposition — the Table 3 numbers for a move the daemon just issued.
func lastBreakdown(rt *runtime.Runtime) runtime.MoveBreakdown {
	if n := len(rt.MoveStats); n > 0 {
		return rt.MoveStats[n-1]
	}
	return runtime.MoveBreakdown{}
}
