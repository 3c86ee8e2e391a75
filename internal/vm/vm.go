// Package vm executes CARAT IR directly against the simulated machine. It
// plays the role of the hardware in the paper's evaluation: it runs the
// compiled (and possibly instrumented) module, charges a cycle cost per
// instruction, evaluates guards through the configured mechanism, invokes
// the runtime callbacks, and — in "traditional" mode — routes every data
// access through the TLB/pagewalker hierarchy instead.
//
// The VM intentionally does not model a data cache; the figures the
// benchmark harness reproduces are relative overheads between executions
// of identical instruction streams, which the paper's own methodology
// (normalized overhead vs. baseline) also relies on.
package vm

import (
	"fmt"

	"carat/internal/fault"
	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/kernel"
	"carat/internal/mmpolicy"
	"carat/internal/obs"
	"carat/internal/runtime"
	"carat/internal/tlb"
)

// Mode selects the address-translation model.
type Mode int

// Execution modes.
const (
	// ModeCARAT runs with physical addressing: guards and tracking
	// callbacks (if compiled in) are live; there is no TLB.
	ModeCARAT Mode = iota
	// ModeTraditional runs with paging: every data access is translated
	// through the TLB hierarchy; guards must not be present.
	ModeTraditional
)

// Config configures a VM instance.
type Config struct {
	Mode      Mode
	GuardMech guard.Mechanism

	// StackBytes and HeapBytes size the process's stack and heap regions.
	StackBytes uint64
	HeapBytes  uint64

	// MemBytes sizes the machine's physical memory. Ignored when Kernel is
	// set.
	MemBytes uint64

	// Kernel, when set, loads the process into an existing machine instead
	// of creating a private one: caratd runs every tenant request as a
	// kernel.Process over one shared PhysMem. The shared kernel's tracer
	// and fault injector are left untouched (Trace/Fault below then apply
	// only to this VM's runtime), and the caller is responsible for
	// Release() after the run so the machine gets its pages back.
	Kernel *kernel.Kernel

	// Limiter, when set, meters every page grant of this process against a
	// quota (kernel.ErrQuota on breach). Used by caratd for per-tenant
	// max-live-allocation limits.
	Limiter kernel.Limiter

	// MaxCycles aborts the run once the modeled cycle clock passes the
	// budget (0 = no limit). Checked at safepoints, like MaxInstrs; the
	// caratd per-tenant "max cycles per request" quota.
	MaxCycles uint64

	// Paging, when set in traditional mode, receives page touches for the
	// Table 2 demand-paging accounting.
	Paging *kernel.PagingModel

	// Capsule lays the whole process out as ONE contiguous region (the
	// "dark capsule" linkage model of §3): code, globals, heap, and all
	// stacks (thread stacks are carved from the heap, as the paper
	// prescribes). Guards then always hit the single-region fast path.
	// The tradeoff is a single rwx permission for the whole process.
	Capsule bool

	// MaxInstrs aborts runaway programs (0 = no limit).
	MaxInstrs uint64

	// Predecode selects the predecoded execution engine: each function is
	// lowered once into a flat dispatch form (resolved register slots,
	// immediate constants, precomputed GEP strides, direct block indices).
	// Host-speed only: modeled results are byte-identical to the baseline
	// interpreter.
	Predecode bool

	// XCache puts a small per-thread direct-mapped guard/translation cache
	// in front of the guard evaluator (CARAT mode only). Hits replay the
	// recorded walk cost, so modeled cycles are byte-identical with the
	// cache on or off.
	XCache bool

	// Closure selects the third execution tier: each predecoded function is
	// lowered once more into chained Go closures — one superinstruction
	// closure per basic block, fusing compare+branch, GEP+load/store, and
	// guard-check+access pairs — with monomorphic inline caches on call
	// sites. The compiled form bakes global/function addresses and is
	// stamped with the region-set epoch; any epoch bump (page moves, grants,
	// forwarding windows) deopts in-flight activations back to the predecode
	// tier and recompiles on the next call. Implies the predecode lowering.
	// Host-speed only: modeled results are byte-identical to both other
	// tiers.
	Closure bool

	// Obs, when set, is the shared metrics registry for all layers of
	// this machine (kernel, runtime, tlb, vm). A private registry is
	// created when nil.
	Obs *obs.Registry

	// Trace, when set, receives simulated-cycle trace events from every
	// layer. nil disables tracing at zero cost.
	Trace *obs.Tracer

	// Sampler, when set, attaches the cycle-sampling profiler: the VM
	// registers one track and samples the running thread's guest stack
	// every Sampler.Interval model cycles at safepoints, folding the
	// guard/tracking/move/swap cycle counters into phase samples at the
	// same granularity. nil disables sampling; the hot-loop cost when
	// enabled is one comparison per safepoint. Sampling never perturbs
	// modeled results (it only reads the cycle counters).
	Sampler *obs.Sampler

	// Fault, when set, threads a seeded fault injector through the
	// kernel and runtime of this machine: moves may then be vetoed or
	// aborted mid-protocol (and rolled back), swaps may fail and retry.
	// nil disables injection at zero cost.
	Fault *fault.Injector

	// PauseBudget is the longest modeled world-stop pause, in cycles, a
	// move or swap may impose on this machine's threads (see
	// runtime.SetPauseBudget); 0 is unbounded, one stop per operation.
	// Modeled cycles, memory contents, and fault-injection draws are
	// byte-identical at every budget — only pause attribution changes.
	PauseBudget uint64

	// ArenaPages, when nonzero, carves a private contiguous page arena of
	// that size out of the (usually shared) kernel at load time and routes
	// every grant and move destination of this process into it. This is
	// what makes a process's physical layout — and therefore its guard
	// walks, translation-cache behavior, and memory digest — independent of
	// how other processes' allocations interleave with its own, the
	// precondition for the multi-core determinism contract. 0 keeps the
	// shared first-fit allocator (fine for a machine with one process).
	ArenaPages uint64
}

// DefaultConfig returns a reasonable configuration for running workloads.
func DefaultConfig() Config {
	return Config{
		Mode:       ModeCARAT,
		GuardMech:  guard.MechRange,
		StackBytes: 1 << 20, // 1 MB
		HeapBytes:  1 << 26, // 64 MB
		MemBytes:   1 << 28, // 256 MB
		MaxInstrs:  2_000_000_000,
		Predecode:  true,
		XCache:     true,
	}
}

// Fault is a protection violation: a guard rejected an access, or (in
// traditional mode) translation failed.
type Fault struct {
	Addr uint64
	Size uint64
	Perm guard.Perm
	Msg  string
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("vm: protection fault: %s [%#x,+%d) %s", f.Msg, f.Addr, f.Size, f.Perm)
}

// VM is a loaded process ready to run.
type VM struct {
	cfg   Config
	mod   *ir.Module
	kern  *kernel.Kernel
	proc  *kernel.Process
	rt    *runtime.Runtime
	hier  *tlb.Hierarchy
	eval  *guard.Evaluator
	arena *kernel.Arena // non-nil iff Config.ArenaPages was set

	// Layout.
	codeBase    uint64
	codeOf      map[*ir.Func]uint64
	funcAt      map[uint64]*ir.Func
	globalAddr  map[*ir.Global]uint64
	globalsBase uint64
	globalsLen  uint64

	// Predecoded-operand address tables: globalPhys[globalIdx[g]] and
	// funcPhys[funcIdx[f]] mirror globalAddr/codeOf as flat slices so the
	// predecoded engine resolves addresses by index. onMove rebuilds them,
	// keeping kernel-initiated moves visible.
	globalIdx  map[*ir.Global]int
	globalPhys []uint64
	funcIdx    map[*ir.Func]int
	funcPhys   []uint64

	heap  heap
	funcs map[*ir.Func]*funcInfo

	// Threads.
	sched *scheduler

	// Statistics.
	Instrs      uint64
	Cycles      uint64
	GuardChecks uint64
	Output      []int64

	// Closure-tier counters (host-side, never part of the model): blocks
	// lowered to superinstruction closures, deopt events (stale epoch at
	// entry, in-flight bailouts to the predecode tier, compile refusals),
	// and inline-cache hits/misses on closure call sites.
	closureBlocks   uint64
	closureDeopts   uint64
	closureICHits   uint64
	closureICMisses uint64

	// Prof attributes every charged cycle to a category and (for compute)
	// a function; obsReg backs the carat.vm.* metrics published by Run.
	Prof      *obs.CycleProfile
	obsReg    *obs.Registry
	tr        *obs.Tracer
	allocHist *obs.Histogram

	trackStart uint64 // rt.Stats.TrackingCycle at launch
	moveStart  uint64 // rt.Stats.MoveCycles at launch
	swapStart  uint64 // rt.Stats.SwapCycles at launch

	// track is this VM's stream in the attached cycle sampler (nil when
	// sampling is off). One track per VM, not per thread: the baton
	// discipline means v.Cycles is a single model clock all threads share,
	// so per-thread tracks would double-count intervals.
	track *obs.Track

	// Move injection (Figure 9): movePolicy runs at safepoints, paced on
	// retired instructions by the same rare-migration policy the paging
	// model uses (mmpolicy.RareMigration).
	movePolicy  func() error
	moveTrigger *mmpolicy.RareMigration
}

// SetMovePolicy arranges for fn to run at a safepoint every period retired
// instructions — the Figure 9 page-move injector. Call before Run.
func (v *VM) SetMovePolicy(period uint64, fn func() error) {
	v.movePolicy = fn
	v.moveTrigger = mmpolicy.NewRareMigration(period)
}

// Kernel returns the VM's kernel, for experiment harnesses that inject
// change requests.
func (v *VM) Kernel() *kernel.Kernel { return v.kern }

// Module returns the loaded module.
func (v *VM) Module() *ir.Module { return v.mod }

// Process returns the kernel process handle.
func (v *VM) Process() *kernel.Process { return v.proc }

// Runtime returns the CARAT runtime (nil only before Load).
func (v *VM) Runtime() *runtime.Runtime { return v.rt }

// Obs returns the metrics registry shared by this machine's layers.
func (v *VM) Obs() *obs.Registry { return v.obsReg }

// Hierarchy returns the TLB hierarchy (traditional mode only).
func (v *VM) Hierarchy() *tlb.Hierarchy { return v.hier }

// GlobalAddr returns the physical address assigned to global g.
func (v *VM) GlobalAddr(g *ir.Global) uint64 { return v.globalAddr[g] }

// ProcessBaseBytes models the fixed per-process memory a real Linux
// process carries regardless of the benchmark (loader image, libc data,
// runtime stub) — the paper's "Initial Pages" are in the same spirit.
const ProcessBaseBytes = 64 << 10

// ProgramFootprintBytes returns the program's own memory high-water mark:
// globals plus heap bytes ever bumped plus per-thread stack high-water
// plus the fixed process baseline. Figure 6 compares this against the
// runtime's tracking overhead.
func (v *VM) ProgramFootprintBytes() uint64 {
	total := uint64(ProcessBaseBytes) + v.globalsLen
	total += v.heap.brk - v.heap.base
	for _, t := range v.sched.threads {
		total += t.stackTop - t.minSP
	}
	return total
}

// funcInfo is the per-function "register file" layout: every SSA value
// gets a slot; pointer-typed slots are recorded so the move engine can
// patch in-register pointers.
type funcInfo struct {
	slotOf   map[ir.Value]int
	nSlots   int
	ptrSlots []int
	prof     *obs.FuncProfile // resolved once at load; hot-loop updates are plain adds
	pf       *pfunc           // predecoded body, built on first pcallFunc

	// Closure-tier state: cf is the compiled closure body (nil until the
	// first closure call, dropped again on deopt); noClosure marks a
	// function the closure compiler refused (undecodable shape) — it runs
	// on the predecode tier permanently.
	cf        *cfunc
	noClosure bool
}

func buildFuncInfo(f *ir.Func) *funcInfo {
	fi := &funcInfo{slotOf: make(map[ir.Value]int)}
	add := func(v ir.Value, isPtr bool) {
		fi.slotOf[v] = fi.nSlots
		if isPtr {
			fi.ptrSlots = append(fi.ptrSlots, fi.nSlots)
		}
		fi.nSlots++
	}
	for _, p := range f.Params {
		add(p, p.Typ.IsPtr())
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op.HasResult() && in.Typ != ir.Void {
				add(in, in.Typ.IsPtr())
			}
		}
	}
	return fi
}

// Load places the module into a fresh simulated machine: code, globals
// (data+bss), stack, and heap regions are granted by the kernel; globals'
// initializers are copied; static allocations are registered with the
// runtime; and the entry thread is created but not started. This mirrors
// the load-time sequence of §2.2 ("Run-time").
func Load(mod *ir.Module, cfg Config) (*VM, error) {
	if err := mod.Verify(); err != nil {
		return nil, fmt.Errorf("vm: load: %w", err)
	}
	reg := cfg.Obs
	shared := cfg.Kernel != nil
	if reg == nil {
		if shared {
			reg = cfg.Kernel.Obs
		} else {
			reg = obs.NewRegistry()
		}
	}
	var k *kernel.Kernel
	if shared {
		k = cfg.Kernel
	} else {
		k = kernel.NewWith(cfg.MemBytes, reg)
	}
	proc := k.NewProcess()
	if cfg.Limiter != nil {
		proc.SetLimiter(cfg.Limiter)
	}
	// On a shared machine a failed load must hand its partial grants back.
	loaded := false
	var arena *kernel.Arena
	defer func() {
		if !loaded {
			_ = proc.ReleaseAll()
			if arena != nil {
				_ = k.ReleaseArena(arena)
			}
		}
	}()
	if cfg.ArenaPages > 0 {
		a, aerr := k.NewArena(cfg.ArenaPages)
		if aerr != nil {
			return nil, fmt.Errorf("vm: %w", aerr)
		}
		arena = a
		proc.SetArena(a)
	}
	v := &VM{
		cfg:        cfg,
		mod:        mod,
		kern:       k,
		proc:       proc,
		arena:      arena,
		codeOf:     make(map[*ir.Func]uint64),
		funcAt:     make(map[uint64]*ir.Func),
		globalAddr: make(map[*ir.Global]uint64),
		funcs:      make(map[*ir.Func]*funcInfo),
		Prof:       obs.NewCycleProfile(),
		obsReg:     reg,
		tr:         cfg.Trace,
		allocHist:  reg.Histogram("carat.vm.alloc_bytes"),
	}
	v.rt = runtime.NewWith(k.Mem, nil, reg)
	proc.Handler = v.rt
	v.rt.AddMoveListener(v.onMove)

	// Tracing: all layers share one tracer clocked by this VM's simulated
	// cycle counter; each run opens its own trace process lane.
	v.tr.SetClock(func() uint64 { return v.Cycles })
	v.tr.BeginProcess(mod.Name)
	if !shared {
		// A shared kernel's tracer/injector belong to its owner; wiring a
		// per-request tracer into it would race with concurrent loads.
		k.SetTracer(v.tr)
		k.SetInjector(cfg.Fault)
	}
	v.rt.SetTracer(v.tr)
	v.rt.SetInjector(cfg.Fault)

	for _, f := range mod.Funcs {
		fi := buildFuncInfo(f)
		fi.prof = v.Prof.Func(f.Name)
		v.funcs[f] = fi
	}

	// Layout sizes. Code is position-independent by construction (the
	// kernel can relocate it; function "addresses" are just identifiers
	// here); each function occupies a 64-byte slot.
	codeLen := uint64(len(mod.Funcs)*64 + 64)
	var globalsLen uint64
	for _, g := range mod.Globals {
		globalsLen += alignTo(uint64(g.Size()), 16)
	}
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = DefaultConfig().HeapBytes
		v.cfg.HeapBytes = cfg.HeapBytes
	}

	var codeBase, globalsBase, heapBase uint64
	var err error
	if cfg.Capsule {
		// Dark-capsule layout (§3): one contiguous region holding code,
		// globals, and the heap (thread stacks are carved from the heap).
		total := alignTo(codeLen, 16) + globalsLen + cfg.HeapBytes
		base, gerr := proc.GrantRegion(total, guard.PermRead|guard.PermWrite|guard.PermExec)
		if gerr != nil {
			return nil, fmt.Errorf("vm: capsule region: %w", gerr)
		}
		codeBase = base
		globalsBase = base + alignTo(codeLen, 16)
		heapBase = globalsBase + globalsLen
	} else {
		codeBase, err = proc.GrantRegion(codeLen, guard.PermRead|guard.PermExec)
		if err != nil {
			return nil, fmt.Errorf("vm: code region: %w", err)
		}
		if globalsLen > 0 {
			globalsBase, err = proc.GrantRegion(globalsLen, guard.PermRW)
			if err != nil {
				return nil, fmt.Errorf("vm: globals region: %w", err)
			}
		}
		heapBase, err = proc.GrantRegion(cfg.HeapBytes, guard.PermRW)
		if err != nil {
			return nil, fmt.Errorf("vm: heap region: %w", err)
		}
	}

	v.codeBase = codeBase
	for i, f := range mod.Funcs {
		addr := codeBase + uint64(i+1)*64
		v.codeOf[f] = addr
		v.funcAt[addr] = f
	}
	if globalsLen > 0 {
		v.globalsBase, v.globalsLen = globalsBase, globalsLen
		off := globalsBase
		for _, g := range mod.Globals {
			v.globalAddr[g] = off
			if len(g.Init) > 0 {
				if err := k.Mem.WriteAt(off, g.Init); err != nil {
					return nil, err
				}
			}
			off += alignTo(uint64(g.Size()), 16)
		}
	}
	v.heap = newHeap(heapBase, cfg.HeapBytes)

	// Register static allocations with the runtime (load-time recording,
	// §4.1.2): code and each global.
	if err := v.rt.TrackStatic(codeBase, codeLen); err != nil {
		return nil, err
	}
	for _, g := range mod.Globals {
		if g.Size() > 0 {
			if err := v.rt.TrackStatic(v.globalAddr[g], uint64(g.Size())); err != nil {
				return nil, err
			}
		}
	}
	// Initial escapes: global initializers that contain pointers (their
	// offsets are declared in PtrInit). This is the load-time "patch of
	// all global pointers" moment.
	for _, g := range mod.Globals {
		for _, po := range g.PtrInit {
			loc := v.globalAddr[g] + uint64(po)
			v.rt.TrackEscape(loc, k.Mem.Load64(loc))
		}
	}

	// Traditional mode: build the paging hierarchy. Pages are mapped on
	// demand (identity), feeding the Table 2 paging model when attached.
	if cfg.Mode == ModeTraditional {
		v.hier = tlb.NewHierarchyWith(tlb.NewPageTable(), reg)
	}
	v.eval = guard.NewEvaluator(cfg.GuardMech, proc.Regions)

	// Flat address tables for the predecoded engine.
	v.globalIdx = make(map[*ir.Global]int, len(mod.Globals))
	v.globalPhys = make([]uint64, len(mod.Globals))
	for i, g := range mod.Globals {
		v.globalIdx[g] = i
		v.globalPhys[i] = v.globalAddr[g]
	}
	v.funcIdx = make(map[*ir.Func]int, len(mod.Funcs))
	v.funcPhys = make([]uint64, len(mod.Funcs))
	for i, f := range mod.Funcs {
		v.funcIdx[f] = i
		v.funcPhys[i] = v.codeOf[f]
	}

	// Guard/translation cache invalidation (two tiers; see DESIGN.md).
	// Precise range invalidation for map changes that leave the region set
	// alone: Fig-8 page moves and allocation-granularity moves arrive
	// through the move listener (onMove), swap in/out — including
	// mmpolicy-driven tiering — through the invalidation listener. Region-
	// set changes (grant/release/protect) shift search paths globally, so
	// the MMU notifier flushes everything; the per-entry epoch stamp backs
	// this up even if a path is missed.
	v.rt.AddInvalidationListener(func(base, length uint64) {
		v.invalidateXCaches(base, length)
	})
	proc.RegisterNotifier(kernel.NotifierFunc(func(ev kernel.MMUEvent) {
		switch ev.Kind {
		case kernel.EventInvalidateRange, kernel.EventAllocate:
			v.flushXCaches()
		}
	}))
	// The traditional-mode TLB hierarchy gets the same two-tier shootdown:
	// a PTE change invalidates the remapped pages, an unmap flushes them.
	if v.hier != nil {
		proc.RegisterNotifier(kernel.NotifierFunc(func(ev kernel.MMUEvent) {
			switch ev.Kind {
			case kernel.EventPTEChange, kernel.EventInvalidateRange:
				v.hier.InvalidateRange(ev.Base, ev.Len)
			}
		}))
	}

	v.sched = newScheduler(v)
	v.rt.SetWorld(v.sched)
	v.rt.SetPauseBudget(cfg.PauseBudget)
	v.trackStart = v.rt.Stats.TrackingCycle.Get()
	v.moveStart = v.rt.Stats.MoveCycles.Get()
	v.swapStart = v.rt.Stats.SwapCycles.Get()
	if cfg.Sampler != nil {
		v.track = cfg.Sampler.NewTrack()
	}
	loaded = true
	return v, nil
}

// Release frees every page region the process still holds, returning the
// memory (and any quota reservations) to the machine, and returns the
// process's arena (if any) too. Required after each run on a shared
// kernel; a no-op on the second call.
func (v *VM) Release() error {
	if err := v.proc.ReleaseAll(); err != nil {
		return err
	}
	if v.arena != nil {
		if err := v.kern.ReleaseArena(v.arena); err != nil {
			return err
		}
		v.arena = nil
	}
	return nil
}

// Arena returns the process's private page arena, or nil when the VM was
// loaded without Config.ArenaPages.
func (v *VM) Arena() *kernel.Arena { return v.arena }

// Suspend parks this VM's guest execution at its next safepoint and
// returns once it is parked (or before the run has started — the run then
// waits). The returned resume function releases the suspension and is
// idempotent. Suspensions nest: the guest resumes when the last one is
// released. While suspended, the caller owns the process's world — it may
// request moves, protection changes, or swaps against this process from
// its own goroutine without racing guest execution, which is the only
// sanctioned way to drive a foreign process's memory from outside its
// safepoints. Must not be called from this VM's own guest execution
// (a self-suspension would wait for its own park and deadlock); guests
// use move policies instead.
func (v *VM) Suspend() (resume func()) { return v.sched.suspend() }

// foldPhaseSamples converts the non-exec cycle counters accumulated since
// Load into profiler samples. Counter baselines (trackStart etc.) keep a
// shared registry's carry-over from earlier runs out of this VM's track.
// Called at sampling points and once at the end of Run, so per-phase
// sample totals track the counters within one interval.
func (v *VM) foldPhaseSamples() {
	v.track.FoldPhase("guard", v.eval.Cycles)
	v.track.FoldPhase("escape-flush", v.rt.Stats.TrackingCycle.Get()-v.trackStart)
	v.track.FoldPhase("move", v.rt.Stats.MoveCycles.Get()-v.moveStart)
	v.track.FoldPhase("swap", v.rt.Stats.SwapCycles.Get()-v.swapStart)
}

// invalidateXCaches drops stale entries covering [base, base+length) from
// every thread's guard/translation cache. Runs with the world stopped.
func (v *VM) invalidateXCaches(base, length uint64) {
	if v.sched == nil {
		return
	}
	for _, t := range v.sched.threads {
		if t.xc != nil {
			t.xc.InvalidateRange(base, length)
		}
	}
}

// flushXCaches drops every cached entry (region-set change: search paths
// shifted globally).
func (v *VM) flushXCaches() {
	if v.sched == nil {
		return
	}
	for _, t := range v.sched.threads {
		if t.xc != nil {
			t.xc.InvalidateAll()
		}
	}
}

// onMove rebases the VM's own bookkeeping after the kernel moved
// [src, src+length) to dst: heap metadata, global addresses, and the code
// map. Thread register slots are patched separately through the World
// interface.
func (v *VM) onMove(src, dst, length uint64) {
	reb := func(a uint64) uint64 {
		if a >= src && a < src+length {
			return a - src + dst
		}
		return a
	}
	v.heap.rebase(src, dst, length)
	for g, a := range v.globalAddr {
		if na := reb(a); na != a {
			v.globalAddr[g] = na
		}
	}
	if nb := reb(v.globalsBase); nb != v.globalsBase {
		v.globalsBase = nb
	}
	if nc := reb(v.codeBase); nc != v.codeBase {
		v.codeBase = nc
		newAt := make(map[uint64]*ir.Func, len(v.funcAt))
		for a, f := range v.funcAt {
			na := reb(a)
			newAt[na] = f
			v.codeOf[f] = na
		}
		v.funcAt = newAt
	}
	v.sched.rebaseStacks(src, dst, length)
	// Refresh the predecoded engine's flat address tables.
	for g, i := range v.globalIdx {
		v.globalPhys[i] = v.globalAddr[g]
	}
	for f, i := range v.funcIdx {
		v.funcPhys[i] = v.codeOf[f]
	}
	// Both the vacated and the newly-populated ranges are stale in the
	// per-thread guard caches.
	v.invalidateXCaches(src, length)
	v.invalidateXCaches(dst, length)
}

// Run executes @main to completion and returns its result (0 for void
// mains). Tracking cycles accumulated by the runtime are folded into the
// VM cycle count on return.
func (v *VM) Run() (int64, error) {
	main := v.mod.Func("main")
	if main == nil || main.IsDecl() {
		return 0, fmt.Errorf("vm: module has no @main")
	}
	v.sched.beginRun()
	defer v.sched.endRun()
	ret, err := v.sched.runMain(main)
	if v.track != nil {
		// Final exec catch-up at the pre-fold clock (the fold-ins below
		// belong to other phases), then settle every phase's remainder.
		v.track.Sample(v.Cycles, func() string { return "main" })
		v.foldPhaseSamples()
	}
	tracking := v.rt.Stats.TrackingCycle.Get() - v.trackStart
	v.Cycles += tracking
	v.Prof.Cat[obs.CatTracking] += tracking
	v.Cycles += v.eval.Cycles
	v.Prof.Cat[obs.CatGuard] += v.eval.Cycles
	v.GuardChecks = v.eval.Checks
	for _, bd := range v.rt.MoveStats {
		v.Cycles += bd.TotalCycles()
		v.Prof.Cat[obs.CatProtocol] += bd.TotalCycles()
	}
	v.publishMetrics()
	return ret, err
}

// publishMetrics adds this run's totals into the carat.vm.* namespace.
// Counters accumulate, so a bench sweep sharing one registry across
// sequential runs sees corpus-wide totals.
func (v *VM) publishMetrics() {
	v.obsReg.Counter("carat.vm.instrs").Add(v.Instrs)
	v.obsReg.Counter("carat.vm.guard_checks").Add(v.GuardChecks)
	v.obsReg.Counter("carat.vm.guard_faults").Add(v.eval.Faults)
	if v.cfg.XCache && v.cfg.Mode == ModeCARAT {
		hits, misses, invs := v.XCacheStats()
		v.obsReg.Counter("carat.vm.xcache.hits").Add(hits)
		v.obsReg.Counter("carat.vm.xcache.misses").Add(misses)
		v.obsReg.Counter("carat.vm.xcache.invalidations").Add(invs)
	}
	if v.cfg.Closure {
		v.obsReg.Counter("carat.vm.closure.blocks").Add(v.closureBlocks)
		v.obsReg.Counter("carat.vm.closure.deopts").Add(v.closureDeopts)
		v.obsReg.Counter("carat.vm.closure.ic_hits").Add(v.closureICHits)
		v.obsReg.Counter("carat.vm.closure.ic_misses").Add(v.closureICMisses)
	}
	v.Prof.PublishTo(v.obsReg, "carat.vm")
}

// ClosureStats returns the closure-tier counters: basic blocks lowered to
// superinstruction closures, deopt events, and call-site inline-cache
// hits/misses. All zero unless Config.Closure is set.
func (v *VM) ClosureStats() (blocks, deopts, icHits, icMisses uint64) {
	return v.closureBlocks, v.closureDeopts, v.closureICHits, v.closureICMisses
}

// XCacheStats sums the per-thread guard/translation cache counters.
func (v *VM) XCacheStats() (hits, misses, invalidations uint64) {
	for _, t := range v.sched.threads {
		if t.xc != nil {
			hits += t.xc.Hits
			misses += t.xc.Misses
			invalidations += t.xc.Invalidations
		}
	}
	return hits, misses, invalidations
}

// InjectWorstCaseMove performs one kernel-initiated move of the page
// holding the most-escaped allocation (the Figure 9 workload), callable
// from a MovePolicy hook while the program runs.
func (v *VM) InjectWorstCaseMove() error {
	page, ok := v.rt.WorstCasePage()
	if !ok {
		return fmt.Errorf("vm: no allocations to move")
	}
	_, err := v.proc.RequestMove(page, 1)
	return err
}

// SwapOutAllocation evicts the heap allocation based at base into a swap
// slot (§2.2's page-unavailability mechanism at allocation granularity):
// its escaped pointers become non-canonical poison addresses, and the next
// guarded use transparently swaps it back in. The vacated heap block is
// returned to the allocator.
func (v *VM) SwapOutAllocation(base uint64) (uint64, error) {
	slot, err := v.rt.SwapOut(base)
	if err != nil {
		return 0, err
	}
	if v.heap.live(base) {
		if err := v.heap.free(base); err != nil {
			return 0, err
		}
	}
	return slot, nil
}

// InjectWorstCaseAllocationMove relocates the most-escaped heap allocation
// at allocation granularity (§6 "Allocation Granularity"): no page
// expansion, no page-semantics negotiation — the ablation the paper
// predicts removes ~95% of the move cost.
func (v *VM) InjectWorstCaseAllocationMove() error {
	base, length, ok := v.rt.WorstCaseHeapAllocation(v.heap.base, v.heap.end)
	if !ok {
		return fmt.Errorf("vm: no heap allocations to move")
	}
	cls := sizeClass(length)
	dst := v.heap.alloc(length)
	if dst == 0 {
		return fmt.Errorf("vm: heap exhausted during allocation move")
	}
	if _, err := v.rt.MoveAllocationTo(base, dst); err != nil {
		return err
	}
	// The move listener rebased the heap's metadata for base onto dst;
	// the vacated block becomes reusable free space.
	v.heap.donate(base, cls)
	return nil
}

func alignTo(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }
