package vm

import (
	"fmt"
	"sync"

	"carat/internal/ir"
	"carat/internal/kernel"
	"carat/internal/obs"
)

// Group runs several processes of one simulated machine truly
// concurrently: each process's guest thread executes on a goroutine of its
// own over the shared PhysMem. A process's world is entered only from its
// own goroutine — a move is raised by that process's move policy at a
// safepoint of its guest — so a move in process A never pauses process B,
// and no stop request crosses between them.
//
// Determinism contract: each member runs inside its own page arena and
// counts into a runtime of its own, so its model cycles, guard counts,
// output, and arena memory digest are byte-identical at any GOMAXPROCS —
// only the cross-process interleaving varies. Members publish their metrics
// into the kernel's registry as any run does; Close() asserts full
// page-accounting integrity (every frame and every arena handed back, no
// page left owned).
type Group struct {
	kern  *kernel.Kernel
	procs []*member
	free0 uint64 // machine free pages at group creation
}

type member struct {
	name string
	vm   *VM
}

// GroupResult is one process's outcome. Digest folds the architectural
// results (return value, instruction/cycle/guard counts, output) with an
// FNV-1a checksum of the process's entire arena — the per-process half of
// the PhysMem integrity check.
type GroupResult struct {
	Name        string
	Ret         int64
	Err         error
	Instrs      uint64
	Cycles      uint64
	GuardChecks uint64
	Output      []int64
	Digest      uint64
}

// NewGroup builds a fresh machine for a set of concurrent processes.
func NewGroup(memBytes uint64) *Group {
	k := kernel.NewWith(memBytes, obs.NewRegistry())
	return &Group{kern: k, free0: k.Alloc.FreePages()}
}

// Kernel exposes the shared machine (page accounting, memory checks).
func (g *Group) Kernel() *kernel.Kernel { return g.kern }

// Add loads a module as a new process of the group's machine, giving it a
// private arena of arenaPages pages; it publishes into the kernel's
// registry. cfg.Kernel, cfg.Obs, and cfg.ArenaPages are overwritten. Calls
// must happen before Run, from one goroutine: load order determines arena
// placement, so it is part of the deterministic setup. The returned VM
// may be configured further (move policies, fault injectors) before Run.
func (g *Group) Add(name string, mod *ir.Module, cfg Config, arenaPages uint64) (*VM, error) {
	cfg.Kernel = g.kern
	cfg.Obs = nil
	cfg.ArenaPages = arenaPages
	v, err := Load(mod, cfg)
	if err != nil {
		return nil, fmt.Errorf("vm: group add %q: %w", name, err)
	}
	g.procs = append(g.procs, &member{name: name, vm: v})
	return v, nil
}

// Run executes every member on its own goroutine and blocks until all
// finish, returning results in Add order. Each result — including its
// digest — is computed on the member's own goroutine, so it reflects only
// that process's execution.
func (g *Group) Run() []GroupResult {
	out := make([]GroupResult, len(g.procs))
	var wg sync.WaitGroup
	for i, m := range g.procs {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			ret, err := m.vm.Run()
			r := GroupResult{
				Name:        m.name,
				Ret:         ret,
				Err:         err,
				Instrs:      m.vm.Instrs,
				Cycles:      m.vm.Cycles,
				GuardChecks: m.vm.GuardChecks,
				Output:      append([]int64(nil), m.vm.Output...),
			}
			r.Digest = digestResult(&r, m.vm)
			out[i] = r
		}(i, m)
	}
	wg.Wait()
	return out
}

// digestResult folds a member's architectural results and arena bytes
// into one FNV-1a word.
func digestResult(r *GroupResult, v *VM) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= (x >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mix(uint64(r.Ret))
	mix(r.Instrs)
	mix(r.Cycles)
	mix(r.GuardChecks)
	mix(uint64(len(r.Output)))
	for _, o := range r.Output {
		mix(uint64(o))
	}
	if a := v.Arena(); a != nil {
		sum, err := v.kern.Mem.ChecksumRange(a.Base(), a.Bytes())
		if err != nil {
			mix(^uint64(0))
		} else {
			mix(sum)
		}
	}
	return h
}

// Close releases every member (regions and arenas) and verifies machine
// integrity: all pages back in the machine allocator and no page left
// owned.
func (g *Group) Close() error {
	var firstErr error
	for _, m := range g.procs {
		if err := m.vm.Release(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("vm: group release %q: %w", m.name, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if free := g.kern.Alloc.FreePages(); free != g.free0 {
		return fmt.Errorf("vm: group leaked pages: %d free, want %d", free, g.free0)
	}
	if n := g.kern.OwnedPageCount(); n != 0 {
		return fmt.Errorf("vm: group left %d pages owned", n)
	}
	return nil
}
