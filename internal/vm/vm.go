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
	"errors"
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
	// budget (0 = no limit). Checked at block heads, like MaxInstrs; the
	// caratd per-tenant "max cycles per request" quota.
	MaxCycles uint64

	// Paging, when set in traditional mode, receives page touches for the
	// Table 2 demand-paging accounting.
	Paging *kernel.PagingModel

	// Capsule lays the whole process out as ONE contiguous region (the
	// "dark capsule" linkage model of §3): code, globals, heap, and the
	// stack (carved from the heap, as the paper prescribes for thread
	// stacks). Guards then always hit the single-region fast path.
	// The tradeoff is a single rwx permission for the whole process.
	Capsule bool

	// MaxInstrs aborts runaway programs (0 = no limit).
	MaxInstrs uint64

	// Closure is the one engine bit. Set (DefaultConfig sets it), the VM runs
	// the compiled engine: each function is lowered on its first call,
	// straight from its IR (closure.go), into blocks of fused steps that one
	// dispatch loop runs, which live in the Program and survive page moves,
	// with a guard/translation cache (xcache) in front of the guard evaluator
	// in CARAT mode. Clear, it runs the reference interpreter
	// (exec.go), straight over the IR with neither the lowering nor the
	// cache: the oracle the tests, -write-golden and BenchmarkExec's reference
	// leg compare the compiled engine against. Host-speed only: modeled
	// results are byte-identical either way.
	Closure bool

	// Predecode and XCache are never read (there is no predecoded form); the
	// frozen benchmark/adapter.go assigns them until the benchmark thaws.
	Predecode, XCache bool

	// Obs, when set, is the shared metrics registry for all layers of
	// this machine (kernel, runtime, tlb, vm). A private registry is
	// created when nil.
	Obs *obs.Registry

	// Trace, when set, receives simulated-cycle trace events from every
	// layer. nil disables tracing at zero cost.
	Trace *obs.Tracer

	// Sampler, when set, attaches the cycle-sampling profiler: the VM
	// registers one track and samples the guest's call stack
	// every Sampler.Interval model cycles at block heads, folding the
	// guard/tracking/move/swap cycle counters into phase samples at the
	// same granularity. nil disables sampling; enabled, it adds nothing per
	// block head (the gate's cycle threshold covers it). Sampling never
	// perturbs modeled results (it only reads the cycle counters).
	Sampler *obs.Sampler

	// Fault, when set, threads a seeded fault injector through the
	// kernel and runtime of this machine: moves may then be vetoed or
	// aborted mid-protocol (and rolled back), swaps may fail and retry.
	// nil disables injection at zero cost.
	Fault *fault.Injector
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
		Closure:    true,
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
	cfg  Config
	prog *Program
	kern *kernel.Kernel
	proc *kernel.Process
	rt   *runtime.Runtime
	hier *tlb.Hierarchy
	eval *guard.Evaluator

	// compiled is Config.Closure, read once at load: the compiled engine, or
	// the reference interpreter.
	compiled bool

	// Layout: the address tables, indexed like the program's globals and
	// functions (Program.globalIdx/funcIdx). onMove rebases them, keeping
	// kernel-initiated moves visible to both engines.
	globalPhys []uint64
	funcPhys   []uint64
	globalsLen uint64

	heap  heap
	bound []funcBinding // parallel to the program's functions; see VM.bind

	// The guest thread, and the gate its block heads ask (gate.go).
	world *world
	gate  gate

	// Statistics.
	Instrs      uint64
	Cycles      uint64
	GuardChecks uint64
	Output      []int64

	// Compiled-engine counters (host-side, never part of the model): blocks
	// this VM lowered (zero when the program
	// already held them), constant pools re-baked because a move relocated a
	// global or code, and compiled call sites that found their callee bound
	// (hit) or were the call that binds it (miss).
	closureBlocks    uint64
	closureRepatches uint64
	closureICHits    uint64
	closureICMisses  uint64

	// Prof attributes every charged cycle to a category and (for compute)
	// a function; obsReg is what Run and Release publish into; allocHist
	// (carat.vm.alloc_bytes) is allocated by the first allocation.
	Prof      *obs.CycleProfile
	obsReg    *obs.Registry
	tr        *obs.Tracer
	allocHist *obs.Histogram

	// track is this VM's stream in the attached cycle sampler (nil when
	// sampling is off).
	track *obs.Track

	// Move injection (Figure 9): movePolicy runs at a block head, paced on
	// retired instructions by the same rare-migration policy the paging
	// model uses (mmpolicy.RareMigration).
	movePolicy  func() error
	moveTrigger *mmpolicy.RareMigration
}

// SetMovePolicy arranges for fn to run at a block head every period retired
// instructions — the Figure 9 page-move injector. Call before Run.
func (v *VM) SetMovePolicy(period uint64, fn func() error) {
	v.movePolicy = fn
	v.moveTrigger = mmpolicy.NewRareMigration(period)
}

// Kernel returns the VM's kernel, for experiment harnesses that inject
// change requests.
func (v *VM) Kernel() *kernel.Kernel { return v.kern }

// Module returns the loaded module.
func (v *VM) Module() *ir.Module { return v.prog.mod }

// Process returns the kernel process handle.
func (v *VM) Process() *kernel.Process { return v.proc }

// Runtime returns the CARAT runtime (nil only before Load).
func (v *VM) Runtime() *runtime.Runtime { return v.rt }

// Obs returns the metrics registry shared by this machine's layers.
func (v *VM) Obs() *obs.Registry { return v.obsReg }

// Hierarchy returns the TLB hierarchy (traditional mode only).
func (v *VM) Hierarchy() *tlb.Hierarchy { return v.hier }

// GlobalAddr returns the physical address assigned to global g.
func (v *VM) GlobalAddr(g *ir.Global) uint64 { return v.globalPhys[v.prog.globalIdx[g]] }

// ProcessBaseBytes models the fixed per-process memory a real Linux
// process carries regardless of the benchmark (loader image, libc data,
// runtime stub) — the paper's "Initial Pages" are in the same spirit.
const ProcessBaseBytes = 64 << 10

// ProgramFootprintBytes returns the program's own memory high-water mark:
// globals plus heap bytes ever bumped plus the stack high-water mark
// plus the fixed process baseline. Figure 6 compares this against the
// runtime's tracking overhead.
func (v *VM) ProgramFootprintBytes() uint64 {
	total := uint64(ProcessBaseBytes) + v.globalsLen
	total += v.heap.brk - v.heap.base
	if t := v.world.main; t != nil {
		total += t.stackTop - t.minSP
	}
	return total
}

// Load places the module into a fresh simulated machine: code, globals
// (data+bss), stack, and heap regions are granted by the kernel; globals'
// initializers are copied; static allocations are registered with the
// runtime. Run creates the guest thread and its stack. This mirrors the
// load-time sequence of §2.2 ("Run-time").
func Load(mod *ir.Module, cfg Config) (*VM, error) {
	p, err := NewProgram(mod)
	if err != nil {
		return nil, err
	}
	return LoadProgram(p, cfg)
}

// LoadProgram is Load over a Program the caller built (and may share with
// other VMs): the module is already verified, and every function some VM of
// the program has called is already lowered.
func LoadProgram(p *Program, cfg Config) (*VM, error) {
	mod := p.mod
	if cfg.HeapBytes >= MaxHeapBytes {
		return nil, fmt.Errorf("vm: heap of %d bytes: the heap holds below %d", cfg.HeapBytes, uint64(MaxHeapBytes))
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
	defer func() {
		if !loaded {
			_ = proc.ReleaseAll()
		}
	}()
	v := &VM{
		cfg:        cfg,
		compiled:   cfg.Closure,
		prog:       p,
		kern:       k,
		proc:       proc,
		globalPhys: make([]uint64, len(mod.Globals)),
		funcPhys:   make([]uint64, len(mod.Funcs)),
		bound:      make([]funcBinding, len(mod.Funcs)),
		Prof:       obs.NewCycleProfile(p.funcNames),
		obsReg:     reg,
	}
	v.rt = runtime.New(k.Mem, nil, reg)
	proc.Handler = v.rt
	v.rt.AddMoveListener(v.onMove)

	// Tracing: each run opens its own lane of the shared trace, clocked by
	// this VM's simulated cycle counter, and hands it to every layer.
	v.tr = cfg.Trace.BeginProcess(mod.Name, func() uint64 { return v.Cycles })
	if !shared {
		// A shared kernel's tracer/injector belong to its owner; wiring a
		// per-request tracer into it would race with concurrent loads.
		k.SetTracer(v.tr)
		k.SetInjector(cfg.Fault)
	}
	v.rt.SetTracer(v.tr)
	v.rt.SetInjector(cfg.Fault)

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
	if cfg.Capsule {
		// Dark-capsule layout (§3): one contiguous region holding code,
		// globals, and the heap (the stack is carved from the heap).
		total := alignTo(codeLen, 16) + globalsLen + cfg.HeapBytes
		base, gerr := proc.GrantRegion(total, guard.PermRead|guard.PermWrite|guard.PermExec)
		if gerr != nil {
			return nil, fmt.Errorf("vm: capsule region: %w", gerr)
		}
		codeBase = base
		globalsBase = base + alignTo(codeLen, 16)
		heapBase = globalsBase + globalsLen
	} else {
		var err error
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

	for i := range mod.Funcs {
		v.funcPhys[i] = codeBase + uint64(i+1)*64
	}
	if globalsLen > 0 {
		v.globalsLen = globalsLen
		off := globalsBase
		for i, g := range mod.Globals {
			v.globalPhys[i] = off
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
	for i, g := range mod.Globals {
		if g.Size() > 0 {
			if err := v.rt.TrackStatic(v.globalPhys[i], uint64(g.Size())); err != nil {
				return nil, err
			}
		}
	}
	// Initial escapes: global initializers that contain pointers (their
	// offsets are declared in PtrInit). This is the load-time "patch of
	// all global pointers" moment.
	for i, g := range mod.Globals {
		for _, po := range g.PtrInit {
			loc := v.globalPhys[i] + uint64(po)
			v.rt.TrackStaticEscape(loc, k.Mem.Load64(loc))
		}
	}

	// Traditional mode: build the paging hierarchy. Pages are mapped on
	// demand (identity), feeding the Table 2 paging model when attached.
	if cfg.Mode == ModeTraditional {
		v.hier = tlb.NewHierarchy(tlb.NewPageTable())
	}
	v.eval = guard.NewEvaluator(cfg.GuardMech, proc.Regions)

	// Guard/translation cache invalidation (two tiers; see DESIGN.md).
	// Precise range invalidation for map changes that leave the region set
	// alone: Fig-8 page moves and allocation-granularity moves arrive
	// through the move listener (onMove), swap in/out — including
	// mmpolicy-driven tiering — through the invalidation listener. Region-
	// set changes (grant/release/protect) shift search paths globally, so
	// the MMU notifier flushes everything; the per-entry epoch stamp backs
	// this up even if a path is missed.
	v.rt.AddInvalidationListener(func(base, length uint64) {
		v.invalidateXCache(base, length)
	})
	proc.RegisterNotifier(kernel.NotifierFunc(func(ev kernel.MMUEvent) {
		switch ev.Kind {
		case kernel.EventInvalidateRange, kernel.EventAllocate:
			v.flushXCache()
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

	v.world = &world{v: v}
	v.rt.SetWorld(v.world)
	if cfg.Sampler != nil {
		v.track = cfg.Sampler.NewTrack()
	}
	loaded = true
	return v, nil
}

// Release frees every page region the process still holds, returning the
// memory (and any quota reservations) to the machine. It first publishes whatever the runtime
// counted since Run did, and hands the guard/translation cache, the
// runtime's table stock and escape scratch, and the heap's class table back
// for the next guest (XCacheStats reads zero from here on, and the
// allocation table is empty). Required after each run on a shared kernel; a
// no-op on the second call.
func (v *VM) Release() error {
	v.obsReg.Publish(func(s obs.Sink) { v.rt.Publish(s, v.cfg.Kernel == nil) })
	if xc := v.world.xc(); xc != nil {
		xc.Reset()
		xcaches.Put(xc)
		v.world.main.xc = nil
	}
	v.rt.Release()
	v.heap.release()
	return v.proc.ReleaseAll()
}

// foldPhaseSamples converts the non-exec cycle counters accumulated since
// Load into profiler samples: the runtime is this VM's alone, so its
// counters hold this run's cycles and nothing else. Called at sampling
// points and once at the end of Run, so per-phase sample totals track the
// counters within one interval.
func (v *VM) foldPhaseSamples() {
	v.track.FoldPhase("guard", v.eval.Cycles)
	v.track.FoldPhase("escape-flush", v.rt.Stats.TrackingCycle.Get())
	v.track.FoldPhase("move", v.rt.Stats.MoveCycles.Get())
	v.track.FoldPhase("swap", v.rt.Stats.SwapCycles.Get())
}

// invalidateXCache drops stale entries covering [base, base+length) from
// the guard/translation cache. Runs with the world stopped.
func (v *VM) invalidateXCache(base, length uint64) {
	if xc := v.world.xc(); xc != nil {
		xc.InvalidateRange(base, length)
	}
}

// flushXCache drops every cached entry (region-set change: search paths
// shifted globally).
func (v *VM) flushXCache() {
	if xc := v.world.xc(); xc != nil {
		xc.InvalidateAll()
	}
}

// onMove rebases the VM's own bookkeeping after the kernel moved
// [src, src+length) to dst: heap metadata, the global and function address
// tables, and — when one of those changed — the compiled engine's constant
// pools, which bake them. The thread's register slots are patched
// separately through the World interface.
func (v *VM) onMove(src, dst, length uint64) {
	v.heap.rebase(src, dst, length)
	moved := false
	for _, table := range [][]uint64{v.globalPhys, v.funcPhys} {
		for i, a := range table {
			if a >= src && a < src+length {
				table[i] = a - src + dst
				moved = true
			}
		}
	}
	v.world.rebaseStacks(src, dst, length)
	if moved {
		v.repatchPools()
	}
	// Both the vacated and the newly-populated ranges are stale in the
	// guard cache.
	v.invalidateXCache(src, length)
	v.invalidateXCache(dst, length)
}

// Run executes @main to completion and returns its result (0 for void
// mains). Tracking cycles accumulated by the runtime are folded into the
// VM cycle count on return. Every error it returns is a *StopError.
func (v *VM) Run() (int64, error) {
	main := v.prog.mod.Func("main")
	if main == nil || main.IsDecl() {
		return 0, stopped(fmt.Errorf("vm: module has no @main"))
	}
	v.arm()
	ret, err := v.world.runMain(main)
	if v.track != nil {
		// Final exec catch-up at the pre-fold clock (the fold-ins below
		// belong to other phases), then settle every phase's remainder.
		v.track.Sample(v.Cycles, func() string { return "main" })
		v.foldPhaseSamples()
	}
	tracking := v.rt.Stats.TrackingCycle.Get()
	v.Cycles += tracking
	v.Prof.Cat[obs.CatTracking] += tracking
	v.Cycles += v.eval.Cycles
	v.Prof.Cat[obs.CatGuard] += v.eval.Cycles
	v.GuardChecks = v.eval.Checks
	moves := v.rt.Stats.MoveCycles.Get()
	v.Cycles += moves
	v.Prof.Cat[obs.CatProtocol] += moves
	v.publishMetrics()
	return ret, stopped(err)
}

// publishMetrics is the run's one publish step: its carat.vm.* totals and
// its TLB hierarchy's and runtime's counts. Counters accumulate, so a bench
// sweep sharing one registry across sequential runs sees corpus-wide totals.
func (v *VM) publishMetrics() {
	v.obsReg.Publish(func(s obs.Sink) {
		s.Add("carat.vm.instrs", v.Instrs)
		s.Add("carat.vm.guard_checks", v.GuardChecks)
		s.Add("carat.vm.guard_faults", v.eval.Faults)
		if v.compiled {
			if v.cfg.Mode == ModeCARAT {
				hits, misses, invs := v.XCacheStats()
				s.Add("carat.vm.xcache.hits", hits)
				s.Add("carat.vm.xcache.misses", misses)
				s.Add("carat.vm.xcache.invalidations", invs)
			}
			blocks, deopts, icHits, icMisses := v.ClosureStats()
			s.Add("carat.vm.closure.blocks", blocks)
			s.Add("carat.vm.closure.deopts", deopts)
			s.Add("carat.vm.closure.repatches", v.closureRepatches)
			s.Add("carat.vm.closure.ic_hits", icHits)
			s.Add("carat.vm.closure.ic_misses", icMisses)
		}
		v.Prof.Publish(s)
		s.Drain("carat.vm.alloc_bytes", v.allocHist)
		if v.hier != nil {
			v.hier.Publish(s)
		}
		v.rt.Publish(s, v.cfg.Kernel == nil) // gauges only when the machine is this run's
	})
}

// observeAlloc records one guest allocation's size.
func (v *VM) observeAlloc(n uint64) {
	if v.allocHist == nil {
		v.allocHist = new(obs.Histogram)
	}
	v.allocHist.Observe(n)
}

// ClosureStats returns the compiled engine's counters: basic blocks this VM
// lowered, deoptimizations — the constant 0:
// every verified function compiles and compiled code survives every move, so
// nothing ever leaves the engine; the position (and the
// carat.vm.closure.deopts counter) stay because benchmark/ reads them — and
// compiled call sites that found their callee bound (hit) or bound it
// (miss). All zero on the reference interpreter.
func (v *VM) ClosureStats() (blocks, deopts, icHits, icMisses uint64) {
	return v.closureBlocks, 0, v.closureICHits, v.closureICMisses
}

// XCacheStats returns the guard/translation cache's counters.
func (v *VM) XCacheStats() (hits, misses, invalidations uint64) {
	if xc := v.world.xc(); xc != nil {
		return xc.Hits, xc.Misses, xc.Invalidations
	}
	return 0, 0, 0
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
	_ = v.heap.free(base) // an error: the heap holds no block there to return
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
		// The move rolled back: dst holds nothing of the guest's.
		return errors.Join(err, v.heap.free(dst))
	}
	// The move listener rebased the heap's metadata for base onto dst;
	// the vacated block becomes reusable free space.
	v.heap.donate(base, cls)
	return nil
}

func alignTo(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }
