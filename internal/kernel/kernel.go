package kernel

import (
	"errors"
	"fmt"
	"sync/atomic"

	"carat/internal/fault"
	"carat/internal/guard"
	"carat/internal/obs"
)

// ErrQuota is wrapped by page-grant failures caused by a Limiter: the
// process asked for frames its quota does not cover. Distinct from
// ErrNoMemory (the machine itself is out of frames) so a multi-tenant
// server can answer "your quota" and "global pressure" differently.
var ErrQuota = errors.New("kernel: page quota exceeded")

// Limiter is an optional per-process admission hook on page grants. A
// multi-tenant host (cmd/caratd) installs one per tenant: every region
// grant — including move destinations negotiated by the runtime — first
// reserves its page count, and every release returns it. ReservePages
// errors should wrap ErrQuota. Implementations must be safe for
// concurrent use; one Limiter is typically shared by all of a tenant's
// processes.
type Limiter interface {
	ReservePages(n uint64) error
	ReleasePages(n uint64)
}

// Kernel owns physical memory and page frames, and manages CARAT processes:
// it grants regions, accepts change requests, and coordinates moves with
// the process's runtime through the MoveHandler upcall interface
// (the kernel module of paper §4.3).
type Kernel struct {
	Mem   *PhysMem
	Alloc *PageAllocator
	Stats Stats

	// Obs backs Stats; tr, when set, mirrors MMU-notifier events into the
	// trace stream; inj, when set, injects kernel-side faults into the
	// move negotiation (see internal/fault).
	Obs *obs.Registry
	tr  *obs.Tracer
	inj *fault.Injector

	// owned counts the page frames processes hold: allocFrames adds, and
	// freeFrames subtracts (OwnedPageCount).
	owned atomic.Int64
}

// Stats is the kernel's typed view over its carat.kernel.* metrics. The
// kernel layer owns the page-frame lifecycle — grants, frees, moves,
// protection changes — while the runtime layer owns tracking and per-move
// cost attribution (carat.runtime.*); see DESIGN.md "Observability".
type Stats struct {
	PageAllocs    *obs.Counter // page frames handed out
	PagesScrubbed *obs.Counter // granted pages that were dirty and had to be cleared
	PageFrees     *obs.Counter
	PageMoves     *obs.Counter // pages moved by executed change requests
	ProtChanges   *obs.Counter // protection change requests executed
	MoveVetoes    *obs.Counter // moves vetoed during negotiation
	Shootdowns    *obs.Counter // invalidate/PTE-change notifier deliveries
}

func newStats(reg *obs.Registry) Stats {
	return Stats{
		PageAllocs:    reg.Counter("carat.kernel.page_allocs"),
		PagesScrubbed: reg.Counter("carat.kernel.pages_scrubbed"),
		PageFrees:     reg.Counter("carat.kernel.page_frees"),
		PageMoves:     reg.Counter("carat.kernel.page_moves"),
		ProtChanges:   reg.Counter("carat.kernel.prot_changes"),
		MoveVetoes:    reg.Counter("carat.kernel.move_vetoes"),
		Shootdowns:    reg.Counter("carat.kernel.shootdowns"),
	}
}

// New creates a kernel with the given physical memory size in bytes.
// Metrics go to a private registry; use NewWith to share one.
func New(memBytes uint64) *Kernel {
	return NewWith(memBytes, nil)
}

// NewWith is New with an explicit metrics registry (created if nil).
func NewWith(memBytes uint64, reg *obs.Registry) *Kernel {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	mem := NewPhysMem(memBytes)
	return &Kernel{
		Mem:   mem,
		Alloc: NewPageAllocator(mem.Pages()),
		Stats: newStats(reg),
		Obs:   reg,
	}
}

// SetTracer attaches an event tracer (nil disables tracing). Paging
// events then appear in the trace as mmu.* instants.
func (k *Kernel) SetTracer(tr *obs.Tracer) { k.tr = tr }

// SetInjector attaches a fault injector (nil disables injection): the
// kernel then vetoes a seed-determined fraction of move negotiations, the
// way a real kernel refuses a move whose destination it cannot satisfy.
func (k *Kernel) SetInjector(in *fault.Injector) { k.inj = in }

// NonCanonical is the base of the poison address range used to mark
// unavailable pages (§2.2): patching a pointer into this range guarantees
// a fault on use, and the low bits encode why the page is unavailable.
const NonCanonical = uint64(0xFFFF_8000_0000_0000)

// PoisonKind encodes conditions in the non-canonical address space.
type PoisonKind uint64

// Poison kinds.
const (
	PoisonSwapped PoisonKind = iota + 1
	PoisonDemand
	PoisonNull
)

// Poison returns the non-canonical address encoding kind.
func Poison(kind PoisonKind) uint64 { return NonCanonical | uint64(kind)<<32 }

// IsPoison reports whether addr lies in the non-canonical range.
func IsPoison(addr uint64) bool { return addr >= NonCanonical }

// MoveHandler is the upcall interface the CARAT runtime registers with the
// kernel module. The kernel invokes it to execute steps 2-12 of Figure 8;
// the handler stops the world, negotiates the final range, patches escapes
// and registers, moves the data, and reports the realized move.
type MoveHandler interface {
	// HandleMove is invoked with the kernel's proposed source range and
	// the negotiated destination. It returns the realized source range
	// (possibly expanded so no allocation straddles its boundary).
	HandleMove(req MoveRequest) (MoveResult, error)
	// HandleProtect is invoked for a protection change: the handler stops
	// the world so the next guard observes the new region set.
	HandleProtect(apply func() error) error
}

// MoveRequest is a kernel-initiated page move (step 1 of Figure 8).
type MoveRequest struct {
	Src    uint64 // page-aligned source base
	Pages  uint64 // number of pages requested
	kernel *Kernel
	proc   *Process
}

// MoveResult reports what the runtime actually moved.
type MoveResult struct {
	Src   uint64 // realized (possibly expanded) source base
	Dst   uint64
	Pages uint64
}

// Process is a loaded CARAT process: its region set and its registered
// runtime handler. The region set lives, conceptually, in the runtime's
// landing zone; the kernel is its only writer (§4.2 "Protection").
type Process struct {
	K       *Kernel
	Regions *guard.RegionSet
	Handler MoveHandler

	// limiter, when set, meters this process's page grants (see Limiter).
	limiter Limiter

	// notifiers receive MMU-notifier-style paging events (see notifier.go).
	notifiers []MMUNotifier
}

// NewProcess registers a process with an empty region set.
func (k *Kernel) NewProcess() *Process {
	return &Process{K: k, Regions: guard.NewRegionSet()}
}

// allocFrames grabs n contiguous page frames from the machine allocator and
// counts them as owned.
func (p *Process) allocFrames(n uint64) (uint64, error) {
	base, err := p.K.Alloc.Alloc(n)
	if err != nil {
		return 0, err
	}
	p.K.owned.Add(int64(n))
	return base, nil
}

// freeFrames returns n page frames to the machine allocator and stops
// counting them as owned.
func (p *Process) freeFrames(base, n uint64) error {
	if err := p.K.Alloc.Free(base, n); err != nil {
		return err
	}
	p.K.owned.Add(-int64(n))
	return nil
}

// OwnedPageCount returns the number of page frames processes hold — zero
// once every process has released all regions.
func (k *Kernel) OwnedPageCount() int { return int(k.owned.Load()) }

// SetLimiter installs a page-grant limiter (nil removes it). Call before
// the first grant: the limiter only meters grants made while installed,
// and releases are only reported for pages it metered in.
func (p *Process) SetLimiter(l Limiter) { p.limiter = l }

// reservePages charges n pages against the limiter (no-op without one).
func (p *Process) reservePages(n uint64) error {
	if p.limiter == nil {
		return nil
	}
	return p.limiter.ReservePages(n)
}

// releasePages returns n pages to the limiter (no-op without one).
func (p *Process) releasePages(n uint64) {
	if p.limiter != nil {
		p.limiter.ReleasePages(n)
	}
}

// GrantRegion allocates sizeBytes of contiguous physical memory (rounded
// up to pages), adds it to the process's region set with permission p, and
// returns its base address.
func (p *Process) GrantRegion(sizeBytes uint64, perm guard.Perm) (uint64, error) {
	pages := (sizeBytes + PageSize - 1) / PageSize
	if err := p.reservePages(pages); err != nil {
		return 0, err
	}
	base, err := p.allocFrames(pages)
	if err != nil {
		p.releasePages(pages)
		return 0, err
	}
	// Scrub-on-grant is the only scrub: freed frames keep their contents,
	// and Zero clears only the ones a previous owner wrote.
	scrubbed := p.K.Mem.DirtyPages(base, pages*PageSize)
	err = p.K.Mem.Zero(base, pages*PageSize)
	if err == nil {
		err = p.Regions.Add(guard.Region{Base: base, Len: pages * PageSize, Perm: perm})
	}
	if err != nil {
		_ = p.freeFrames(base, pages) // frames just allocated: cannot double-free
		p.releasePages(pages)
		return 0, err
	}
	p.K.Stats.PageAllocs.Add(pages)
	p.K.Stats.PagesScrubbed.Add(scrubbed)
	p.notify(MMUEvent{Kind: EventAllocate, Base: base, Len: pages * PageSize})
	return base, nil
}

// ReleaseRegion removes [base, base+len) from the region set and frees its
// page frames. base and len must be page-aligned.
func (p *Process) ReleaseRegion(base, length uint64) error {
	if base%PageSize != 0 || length%PageSize != 0 {
		return fmt.Errorf("kernel: unaligned region release")
	}
	p.Regions.Remove(base, length)
	if err := p.freeFrames(base, length/PageSize); err != nil {
		return err
	}
	p.K.Stats.PageFrees.Add(length / PageSize)
	p.releasePages(length / PageSize)
	p.notify(MMUEvent{Kind: EventInvalidateRange, Base: base, Len: length})
	return nil
}

// ReleaseAll frees every region still in the process's region set —
// process teardown for a long-running host that loads and retires many
// processes over one shared physical memory. Safe to call on a partially
// loaded process (e.g. after a mid-load grant failure); a second call is
// a no-op.
func (p *Process) ReleaseAll() error {
	regs := append([]guard.Region(nil), p.Regions.Regions()...)
	var firstErr error
	for _, r := range regs {
		if err := p.ReleaseRegion(r.Base, r.Len); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// RequestProtect executes a protection change request through the runtime's
// world-stop protocol: a simpler variant of a move with no patching (§4.4).
func (p *Process) RequestProtect(base, length uint64, perm guard.Perm) error {
	apply := func() error { return p.Regions.SetPerm(base, length, perm) }
	if p.Handler == nil {
		if err := apply(); err != nil {
			return err
		}
	} else if err := p.Handler.HandleProtect(apply); err != nil {
		return err
	}
	p.K.Stats.ProtChanges.Inc()
	p.notify(MMUEvent{Kind: EventInvalidateRange, Base: base, Len: length})
	return nil
}

// RequestMove asks the process to vacate the page range starting at src
// (step 1 of Figure 8). The runtime may expand the range during
// negotiation. The kernel allocates the destination, the runtime patches
// and moves, and the kernel retires the source frames.
func (p *Process) RequestMove(src uint64, pages uint64) (MoveResult, error) {
	if p.Handler == nil {
		return MoveResult{}, fmt.Errorf("kernel: process has no registered runtime")
	}
	if src%PageSize != 0 {
		return MoveResult{}, fmt.Errorf("kernel: unaligned move source %#x", src)
	}
	res, err := p.Handler.HandleMove(MoveRequest{Src: src, Pages: pages, kernel: p.K, proc: p})
	if err != nil {
		return MoveResult{}, err
	}
	p.K.Stats.PageMoves.Add(res.Pages)
	p.notify(MMUEvent{Kind: EventPTEChange, Base: res.Src, Len: res.Pages * PageSize, NewPA: res.Dst})
	return res, nil
}

// NegotiateDst is called by the runtime during step 5 of Figure 8 once the
// final (possibly expanded) source range is known: the kernel allocates a
// destination range of equal size and installs it in the region set with
// the same permissions as the source.
func (r *MoveRequest) NegotiateDst(src uint64, pages uint64) (uint64, error) {
	reg, ok := r.proc.Regions.Find(src)
	if !ok {
		return 0, fmt.Errorf("kernel: move source %#x not in any region", src)
	}
	if r.kernel.inj.Should(fault.KernelVeto) {
		return 0, &fault.Error{Point: fault.KernelVeto, Detail: fmt.Sprintf("move of [%#x,+%d pages)", src, pages)}
	}
	// The destination counts against the quota until RetireSrc returns the
	// source: a move transiently needs both ranges resident.
	if err := r.proc.reservePages(pages); err != nil {
		return 0, err
	}
	dst, err := r.proc.allocFrames(pages)
	if err != nil {
		r.proc.releasePages(pages)
		return 0, err
	}
	if err := r.proc.Regions.Add(guard.Region{Base: dst, Len: pages * PageSize, Perm: reg.Perm}); err != nil {
		_ = r.proc.freeFrames(dst, pages)
		r.proc.releasePages(pages)
		return 0, err
	}
	r.kernel.Stats.PageAllocs.Add(pages)
	return dst, nil
}

// RetireSrc is called by the runtime after the data movement (step 10):
// the kernel removes the vacated range from the region set and frees its
// frames.
func (r *MoveRequest) RetireSrc(src uint64, pages uint64) error {
	return r.proc.ReleaseRegion(src, pages*PageSize)
}

// Veto aborts a move during negotiation (§4.3: "The kernel module can then
// veto or approve the move"), releasing nothing.
func (r *MoveRequest) Veto() {
	r.kernel.Stats.MoveVetoes.Inc()
}

// AbortDst releases a destination range obtained from NegotiateDst when
// the runtime aborts the move after negotiation: the range leaves the
// region set, its frames return to the allocator, and an
// EventInvalidateRange reaches the MMU notifiers so the VM's
// guard/translation caches drop anything covering the stillborn
// destination. Part of the move protocol's rollback path.
func (r *MoveRequest) AbortDst(dst uint64, pages uint64) error {
	return r.proc.ReleaseRegion(dst, pages*PageSize)
}
