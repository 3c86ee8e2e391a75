package vm

import (
	"fmt"
	"strings"
	"sync"

	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/runtime"
)

// The VM's thread model: a process has exactly one guest thread, and it runs
// on the goroutine that called VM.Run. Execution is therefore deterministic
// (important for differential testing of the guard optimizations and page
// moves), a Go panic inside the guest reaches Run's caller, and the
// world-stop protocol of Figure 8 still runs step for step: when a change
// request arrives, the thread is either the one raising it or parked at a
// safepoint, with its register state published either way.

// xcaches recycles guard/translation caches across VMs. A cache is about
// 100 KB; a guest load that allocated (and zeroed) a fresh one would pay
// that on every short run caratd serves. VM.Release returns a run's cache,
// Reset first, so no entry of a previous owner is ever trusted.
var xcaches = sync.Pool{New: func() any { return guard.NewXCache() }}

type thread struct {
	v      *VM
	frames []*frame

	stackBase uint64 // lowest address of the stack region
	stackTop  uint64 // one past the highest
	sp        uint64 // grows down
	minSP     uint64 // stack high-water mark (lowest sp seen)

	// xc is the guard/translation cache (compiled engine in CARAT mode; nil
	// otherwise — the reference interpreter never shares it); escBuf is the
	// escape-event batch, flushed at parks and at the end of the run.
	xc     *guard.XCache
	escBuf *runtime.EscapeBuffer

	// ptrRegs is Regs' buffer, reused from stop to stop.
	ptrRegs []uint64
}

// frame is one activation record: the function's SSA "registers" plus the
// stack-pointer save for alloca unwinding. A compiled frame's regs
// extend past the binding's nSlots with a copy of its constant pool, which
// VM.repatchPools refreshes when a move relocates a global or code.
type frame struct {
	fb     *funcBinding
	regs   []uint64
	spSave uint64
}

// popFrame unwinds fr, the innermost activation. Returning destroys the
// frame's allocas: the runtime must forget their allocation entries before
// the stack space is reused by a later call at the same depth.
func (t *thread) popFrame(fr *frame) {
	t.frames = t.frames[:len(t.frames)-1]
	if t.sp < fr.spSave {
		t.v.rt.UntrackStackRange(t.sp, fr.spSave)
	}
	t.sp = fr.spSave
}

// scheduler holds the process's guest thread and implements runtime.World.
type scheduler struct {
	v       *VM
	main    *thread // nil until Run creates it
	stopped bool    // world currently stopped (nested stops are a protocol bug)
	stopSet [1]runtime.RegSet

	// External suspension — the per-process stop request of the ragged
	// safepoint protocol, raised as pendingStop in the VM's gate: the
	// guest thread parks at its next block head until every suspension is
	// resumed.
	//
	// susMu/susCond guard suspendReqs (outstanding suspensions) and
	// running (the guest is executing). The mutex also publishes everything
	// a suspender mutates (register patches, table rebases, region-set
	// changes) to the guest before it resumes.
	susMu       sync.Mutex
	susCond     *sync.Cond
	suspendReqs int
	running     bool
}

func newScheduler(v *VM) *scheduler {
	s := &scheduler{v: v}
	s.susCond = sync.NewCond(&s.susMu)
	return s
}

// xc returns the guest thread's guard/translation cache, or nil: before Run,
// on the reference interpreter, and outside CARAT mode.
func (s *scheduler) xc() *guard.XCache {
	if s == nil || s.main == nil {
		return nil
	}
	return s.main.xc
}

// suspend blocks until this process's guest execution is parked at a
// safepoint (or not running at all) and returns a resume function. Nested
// suspensions stack; the guest resumes when the last one is released.
// Callable from any goroutine EXCEPT the one running the guest — a guest
// suspending itself would deadlock (its own park is what the suspender
// waits for). While suspended, the caller may stop this process's world
// (moves, protection changes, swaps) without racing the guest: the thread
// is at a safepoint with its register state published, exactly the
// Figure-8 precondition.
func (s *scheduler) suspend() (resume func()) {
	s.susMu.Lock()
	s.suspendReqs++
	s.v.gate.pending.Store(pendingStop)
	for s.running {
		s.susCond.Wait()
	}
	s.susMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.susMu.Lock()
			s.suspendReqs--
			if s.suspendReqs == 0 {
				s.v.gate.pending.Store(0)
			}
			s.susCond.Broadcast()
			s.susMu.Unlock()
		})
	}
}

// park holds the guest thread at its safepoint until every outstanding
// suspension is resumed. The thread's escape batch is flushed first so the
// suspender observes a fully-applied allocation map (same invariant as a
// world stop). Charges are already flushed: park is act's, and the compiled
// engine flushes before it acts.
func (s *scheduler) park(t *thread) {
	t.escBuf.Flush()
	s.susMu.Lock()
	for s.suspendReqs > 0 {
		s.running = false
		s.susCond.Broadcast()
		s.susCond.Wait()
	}
	s.running = true
	s.susMu.Unlock()
}

// newThread allocates a stack region and creates the guest thread.
func (s *scheduler) newThread() (*thread, error) {
	stackBytes := s.v.cfg.StackBytes
	if stackBytes == 0 {
		stackBytes = DefaultConfig().StackBytes
	}
	// The stack region is granted (guards must admit it) but NOT
	// registered as one big allocation: individual allocas are tracked by
	// the instrumentation, and nesting allocations is not representable.
	// In capsule mode the stack is carved from the heap instead —
	// "additional stacks are allocated from the process heap" (§3).
	var base uint64
	if s.v.cfg.Capsule {
		base = s.v.heap.alloc(stackBytes)
		if base == 0 {
			return nil, fmt.Errorf("vm: capsule heap exhausted allocating a stack")
		}
	} else {
		var err error
		base, err = s.v.proc.GrantRegion(stackBytes, guard.PermRW)
		if err != nil {
			return nil, fmt.Errorf("vm: stack region: %w", err)
		}
	}
	t := &thread{
		v:         s.v,
		stackBase: base,
		stackTop:  base + stackBytes,
		sp:        base + stackBytes,
		minSP:     base + stackBytes,
		escBuf:    s.v.rt.NewEscapeBuffer(),
	}
	if s.v.compiled && s.v.cfg.Mode == ModeCARAT {
		t.xc = xcaches.Get().(*guard.XCache)
	}
	s.main = t
	return t, nil
}

// foldedStack renders the thread's live call stack root-first in the
// folded "a;b;c" form the profiler aggregates on.
func (t *thread) foldedStack() string {
	if len(t.frames) == 0 {
		return "main"
	}
	var b strings.Builder
	for i, fr := range t.frames {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(fr.fb.fn.Name)
	}
	return b.String()
}

// beginRun opens the running window for the suspension protocol: a
// suspension arriving before the run starts holds it here; one arriving
// mid-run parks the guest at its next safepoint. VM.Run brackets its
// ENTIRE body (guest execution plus the cycle-folding/metrics tail) with
// beginRun/endRun, so a suspender that observed running==false owns every
// piece of VM state — not just the scheduler's.
func (s *scheduler) beginRun() {
	s.susMu.Lock()
	for s.suspendReqs > 0 {
		s.susCond.Wait()
	}
	s.running = true
	s.susMu.Unlock()
}

// endRun closes the running window, handing the process to any waiting
// suspender.
func (s *scheduler) endRun() {
	s.susMu.Lock()
	s.running = false
	s.susCond.Broadcast()
	s.susMu.Unlock()
}

// runMain creates the guest thread and runs main on it, on the calling
// goroutine. The caller (VM.Run) must hold the running window via
// beginRun/endRun.
func (s *scheduler) runMain(main *ir.Func) (int64, error) {
	t, err := s.newThread()
	if err != nil {
		return 0, err
	}
	// Any parameters @main declares (no producer declares them, a hostile
	// module may) read zero.
	ret, err := s.v.call(t, main, make([]uint64, len(main.Params)))
	t.escBuf.Flush()
	return int64(ret), err
}

// StopTheWorld implements runtime.World. The guest thread is either the one
// raising the change request or parked at a safepoint, so its register state
// is already published — the moral equivalent of the signal-handler register
// dump in Figure 8. It returns the thread as the one RegSet (none before
// Run), in a slice the next stop rewrites.
func (s *scheduler) StopTheWorld() []runtime.RegSet {
	if s.stopped {
		panic("vm: nested world stop")
	}
	s.stopped = true
	if s.main == nil {
		return nil
	}
	s.stopSet[0] = s.main
	return s.stopSet[:]
}

// ResumeTheWorld implements runtime.World; nothing needs releasing.
func (s *scheduler) ResumeTheWorld() { s.stopped = false }

// rebaseStacks relocates the stack bookkeeping after a move of
// [src, src+length) to dst, if the stack region actually intersects the
// moved range: sp and spSave are boundary pointers (an empty stack's sp
// equals stackTop, which is numerically the base of whatever the kernel
// placed just above the stack), so naively rebasing them whenever their
// value falls inside a moved range would drag them along with moves of
// adjacent, unrelated pages.
func (s *scheduler) rebaseStacks(src, dst, length uint64) {
	t := s.main
	if t == nil || t.stackBase >= src+length || src >= t.stackTop {
		return // the stack did not move
	}
	reb := func(a uint64) uint64 {
		if a >= src && a < src+length {
			return a - src + dst
		}
		return a
	}
	oldTop := t.stackTop
	t.stackBase = reb(t.stackBase)
	t.stackTop = reb(t.stackTop-1) + 1 // one-past-end: rebase last byte
	if t.sp == oldTop {
		t.sp = t.stackTop // empty stack: sp tracks the top boundary
	} else {
		t.sp = reb(t.sp) // sp points at live alloca data
	}
	t.minSP = reb(t.minSP)
	for _, fr := range t.frames {
		if fr.spSave == oldTop {
			fr.spSave = t.stackTop
		} else {
			fr.spSave = reb(fr.spSave)
		}
	}
}

// Regs implements runtime.RegSet: a stopped thread's pointer-typed SSA
// slots across all frames, as one flat register file for patching, in a
// buffer the thread's next Regs rewrites.
func (t *thread) Regs() []uint64 {
	out := t.ptrRegs[:0]
	for _, fr := range t.frames {
		for _, slot := range fr.fb.ptrSlots {
			out = append(out, fr.regs[slot])
		}
	}
	t.ptrRegs = out
	return out
}

// SetReg implements runtime.RegSet.
func (t *thread) SetReg(i int, v uint64) {
	for _, fr := range t.frames {
		n := len(fr.fb.ptrSlots)
		if i < n {
			fr.regs[fr.fb.ptrSlots[i]] = v
			return
		}
		i -= n
	}
}
