package mmpolicy

import (
	"fmt"
	"math/rand"

	"carat/internal/fault"
	"carat/internal/guard"
	"carat/internal/kernel"
	"carat/internal/obs"
	"carat/internal/runtime"
)

// Multi-process pressure harness: several synthetic workloads run as
// separate kernel.Processes over one shared physical memory, interleaved
// round-robin on a simulated cycle clock, with the policy daemon ticking
// in between. Each process keeps a root slot array (a static allocation)
// whose slots hold pointers to its heap allocations — tracked escapes, so
// the move and swap machinery patches them and the harness can verify
// integrity afterwards against per-allocation stamps.

// WorkKind selects a workload's allocation behavior.
type WorkKind int

const (
	// Churn allocates and frees variable-sized blocks at random: the
	// fragmentation generator.
	Churn WorkKind = iota
	// Stream pre-allocates its slots and touches them continuously: hot
	// memory that tiering should leave alone.
	Stream
	// ColdStore pre-allocates its slots and then rarely touches them:
	// prime eviction candidates.
	ColdStore
)

func (k WorkKind) String() string {
	switch k {
	case Churn:
		return "churn"
	case Stream:
		return "stream"
	case ColdStore:
		return "coldstore"
	}
	return "unknown"
}

// ProcSpec describes one workload process.
type ProcSpec struct {
	Name  string
	Kind  WorkKind
	Slots int
	// MaxPages is the largest allocation, in pages (default 4; keep at or
	// below 16 so allocations stay swappable).
	MaxPages uint64
	Seed     int64
}

// HarnessConfig sizes the simulated machine and its workloads.
type HarnessConfig struct {
	MemBytes uint64
	// Kernel, when non-nil, attaches the harness to an existing machine
	// instead of creating a private one (MemBytes is then ignored, and the
	// kernel's tracer/injector are left to its owner). caratd uses this to
	// run the policy daemon and its ballast processes over the same
	// physical memory that serves tenant requests.
	Kernel *kernel.Kernel
	// TickEvery wakes the daemon each time the clock advances this many
	// cycles (0 disables auto-ticking; drive Daemon.Tick by hand).
	TickEvery uint64
	Procs     []ProcSpec
	Policies  []Policy
	// Obs, when non-nil, is the shared metrics registry (a private one is
	// created otherwise); Trace, when non-nil, receives kernel, runtime,
	// and policy.* daemon events.
	Obs   *obs.Registry
	Trace *obs.Tracer
	// Fault, when non-nil, is threaded through the kernel, every process
	// runtime, and the daemon: the whole machine then runs under the same
	// seeded fault schedule (see internal/fault and scripts/soak).
	Fault *fault.Injector
	// Sampler, when non-nil, receives the daemon's "policy"-phase cycle
	// samples (see Daemon.AttachSampler).
	Sampler *obs.Sampler
	// PauseBudget is the max-pause budget in modeled cycles handed to every
	// process runtime (runtime.SetPauseBudget): moves and swaps patch in
	// windows whose worst-case pause fits the budget. 0 is unbounded — one
	// stop per operation. Modeled cycles and memory digests are identical
	// at every budget; only the pause histogram changes shape.
	PauseBudget uint64
}

// WorkProc is one workload process in the harness.
type WorkProc struct {
	MP   *ManagedProc
	Spec ProcSpec

	root    uint64 // base of the slot array (kept current across moves)
	rootLen uint64
	rng     *rand.Rand
	stamps  map[int]uint64
	step    uint64
}

// Harness wires kernel, daemon, and workload processes together.
type Harness struct {
	K     *kernel.Kernel
	D     *Daemon
	Procs []*WorkProc

	// Cycles is the simulated clock, advanced by workload ops, faults, and
	// daemon ticks.
	Cycles    uint64
	tickEvery uint64
	nextTick  uint64
}

// Modeled workload op costs in cycles.
const (
	cycOpIdle  = 100
	cycOpTouch = 200
	cycOpAlloc = 1200
	cycOpFree  = 800
)

// NewHarness builds the machine: one kernel, one daemon running
// cfg.Policies, and one managed process per spec. Stream and ColdStore
// processes pre-allocate their slots.
func NewHarness(cfg HarnessConfig) (*Harness, error) {
	k := cfg.Kernel
	if k == nil {
		k = kernel.NewWith(cfg.MemBytes, cfg.Obs)
		k.SetTracer(cfg.Trace)
		k.SetInjector(cfg.Fault)
	}
	d := New(k, cfg.Policies...)
	d.SetTracer(cfg.Trace)
	d.SetInjector(cfg.Fault)
	d.AttachSampler(cfg.Sampler)
	d.PauseBudget = cfg.PauseBudget
	h := &Harness{K: k, D: d, tickEvery: cfg.TickEvery, nextTick: cfg.TickEvery}
	for _, spec := range cfg.Procs {
		if spec.MaxPages == 0 {
			spec.MaxPages = 4
		}
		p := k.NewProcess()
		rt := runtime.New(k.Mem, nil, k.Obs)
		rt.SetTracer(cfg.Trace)
		rt.SetInjector(cfg.Fault)
		rt.SetPauseBudget(cfg.PauseBudget)
		p.Handler = rt
		mp := d.Attach(spec.Name, p, rt)
		wp := &WorkProc{
			MP: mp, Spec: spec,
			rng:    rand.New(rand.NewSource(spec.Seed)),
			stamps: make(map[int]uint64),
		}
		wp.rootLen = roundUpPages(uint64(spec.Slots) * 8)
		base, err := p.GrantRegion(wp.rootLen, guard.PermRW)
		if err != nil {
			return nil, fmt.Errorf("mmpolicy: harness: grant %s root: %w", spec.Name, err)
		}
		if err := rt.TrackStatic(base, wp.rootLen); err != nil {
			return nil, err
		}
		wp.root = base
		rt.AddMoveListener(func(src, dst, length uint64) {
			if wp.root >= src && wp.root < src+length {
				wp.root = wp.root - src + dst
			}
		})
		h.Procs = append(h.Procs, wp)
		if spec.Kind == Stream || spec.Kind == ColdStore {
			for i := 0; i < spec.Slots; i++ {
				if err := h.allocSlot(wp, i); err != nil {
					return nil, err
				}
			}
		}
	}
	return h, nil
}

func roundUpPages(n uint64) uint64 {
	return (n + kernel.PageSize - 1) / kernel.PageSize * kernel.PageSize
}

func (wp *WorkProc) slotAddr(i int) uint64 { return wp.root + uint64(i)*8 }

// resolve returns the pointer in slot i, handling a swap poison fault by
// swapping the allocation back in (the harness's page-fault handler).
// Returns 0 for an empty slot.
func (h *Harness) resolve(wp *WorkProc, i int) (uint64, error) {
	val := h.K.Mem.Load64(wp.slotAddr(i))
	if val == 0 || !kernel.IsPoison(val) {
		return val, nil
	}
	_, cost, err := h.D.FaultIn(wp.MP, val, h.Cycles)
	if err != nil {
		return 0, fmt.Errorf("mmpolicy: harness: %s slot %d: %w", wp.Spec.Name, i, err)
	}
	h.Cycles += cost
	// SwapIn patched the slot (a tracked escape) forward.
	return h.K.Mem.Load64(wp.slotAddr(i)), nil
}

// setSlot stores a pointer into slot i and reports the escape.
func (h *Harness) setSlot(wp *WorkProc, i int, val uint64) {
	h.K.Mem.Store64(wp.slotAddr(i), val)
	wp.MP.RT.TrackEscape(wp.slotAddr(i), val)
}

// allocSlot fills slot i with a fresh stamped allocation. Out-of-memory is
// not an error: under pressure the op simply fails and the clock advances.
func (h *Harness) allocSlot(wp *WorkProc, i int) error {
	pages := 1 + uint64(wp.rng.Int63n(int64(wp.Spec.MaxPages)))
	base, err := wp.MP.Proc.GrantRegion(pages*kernel.PageSize, guard.PermRW)
	if err != nil {
		h.Cycles += cycOpIdle
		return nil
	}
	if err := wp.MP.RT.TrackAlloc(base, pages*kernel.PageSize); err != nil {
		return err
	}
	stamp := wp.rng.Uint64() | 1
	h.K.Mem.Store64(base, stamp)
	wp.stamps[i] = stamp
	h.setSlot(wp, i, base)
	h.D.RecordAccess(wp.MP, base)
	h.Cycles += cycOpAlloc
	return nil
}

// freeSlot releases slot i's allocation (faulting it in first if it was
// swapped out — free needs the allocation resident and tracked).
func (h *Harness) freeSlot(wp *WorkProc, i int) error {
	base, err := h.resolve(wp, i)
	if err != nil || base == 0 {
		return err
	}
	a := wp.MP.RT.Table.Covering(base)
	if a == nil {
		return fmt.Errorf("mmpolicy: harness: %s slot %d: untracked %#x", wp.Spec.Name, i, base)
	}
	pages := (a.Len + kernel.PageSize - 1) / kernel.PageSize
	if err := wp.MP.RT.TrackFree(base); err != nil {
		return err
	}
	if err := wp.MP.Proc.ReleaseRegion(base, pages*kernel.PageSize); err != nil {
		return err
	}
	h.setSlot(wp, i, 0)
	wp.MP.forget(base)
	delete(wp.stamps, i)
	h.Cycles += cycOpFree
	return nil
}

// touchSlot simulates work against slot i's allocation.
func (h *Harness) touchSlot(wp *WorkProc, i int) error {
	base, err := h.resolve(wp, i)
	if err != nil || base == 0 {
		h.Cycles += cycOpIdle
		return err
	}
	h.K.Mem.Store64(base+8, wp.rng.Uint64())
	h.D.RecordAccess(wp.MP, base)
	h.Cycles += cycOpTouch
	return nil
}

// stepProc runs one workload op for wp.
func (h *Harness) stepProc(wp *WorkProc) error {
	wp.step++
	switch wp.Spec.Kind {
	case Churn:
		i := wp.rng.Intn(wp.Spec.Slots)
		if h.K.Mem.Load64(wp.slotAddr(i)) == 0 {
			return h.allocSlot(wp, i)
		}
		if wp.rng.Float64() < 0.45 {
			return h.freeSlot(wp, i)
		}
		return h.touchSlot(wp, i)
	case Stream:
		return h.touchSlot(wp, int(wp.step)%wp.Spec.Slots)
	case ColdStore:
		if wp.step%64 == 0 {
			return h.touchSlot(wp, wp.rng.Intn(wp.Spec.Slots))
		}
		h.Cycles += cycOpIdle
		return nil
	}
	return fmt.Errorf("mmpolicy: harness: unknown work kind %d", wp.Spec.Kind)
}

// publish lands the runtimes' counts in the registry at the end of Run and Verify.
func (h *Harness) publish() {
	h.K.Obs.Publish(func(s obs.Sink) {
		for _, wp := range h.Procs {
			wp.MP.RT.Publish(s, true)
		}
	})
}

// Run interleaves the workloads for steps rounds (one op per process per
// round), waking the daemon whenever the clock crosses the tick interval.
func (h *Harness) Run(steps int) error {
	defer h.publish()
	for s := 0; s < steps; s++ {
		for _, wp := range h.Procs {
			if err := h.stepProc(wp); err != nil {
				return err
			}
		}
		if h.tickEvery != 0 && h.Cycles >= h.nextTick {
			consumed, err := h.D.Tick(h.Cycles)
			h.Cycles += consumed
			if err != nil {
				return err
			}
			h.nextTick = h.Cycles + h.tickEvery
		}
	}
	return nil
}

// Verify checks end-to-end integrity: every live slot must still reach its
// allocation (faulting swapped ones back in) and find its stamp, and every
// runtime's allocation table must pass its invariant check. This is the
// harness's proof that policy-driven moves and swaps never corrupted a
// process's view of its memory.
func (h *Harness) Verify() error {
	defer h.publish()
	for _, wp := range h.Procs {
		wp.MP.RT.Flush()
		for i := 0; i < wp.Spec.Slots; i++ {
			base, err := h.resolve(wp, i)
			if err != nil {
				return err
			}
			stamp, live := wp.stamps[i]
			if base == 0 {
				if live {
					return fmt.Errorf("mmpolicy: harness: %s slot %d lost its allocation", wp.Spec.Name, i)
				}
				continue
			}
			if !live {
				return fmt.Errorf("mmpolicy: harness: %s slot %d holds %#x but was freed", wp.Spec.Name, i, base)
			}
			if got := h.K.Mem.Load64(base); got != stamp {
				return fmt.Errorf("mmpolicy: harness: %s slot %d: stamp %#x, want %#x",
					wp.Spec.Name, i, got, stamp)
			}
		}
		if err := wp.MP.RT.Table.MaybeCheckInvariants(); err != nil {
			return fmt.Errorf("mmpolicy: harness: %s: %w", wp.Spec.Name, err)
		}
	}
	return nil
}
