package vm

import (
	"fmt"
	"strings"

	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/runtime"
)

// The VM's thread model: a process has exactly one guest thread, and it runs
// on the goroutine that called VM.Run. Execution is therefore deterministic
// (important for differential testing of the guard optimizations and page
// moves), a Go panic inside the guest reaches Run's caller, and the
// world-stop protocol of Figure 8 still runs step for step: a change request
// is raised by the thread itself at a safepoint of its guest (a move policy),
// or while no guest runs, so its register state is published either way.

// xcaches recycles guard/translation caches across VMs. A cache is about
// 100 KB; a guest load that allocated (and zeroed) a fresh one would pay
// that on every short run caratd serves. VM.Release returns a run's cache,
// Reset first, so no entry of a previous owner is ever trusted.
var xcaches runtime.Pool[guard.XCache]

type thread struct {
	v      *VM
	frames []*frame

	stackBase uint64 // lowest address of the stack region
	stackTop  uint64 // one past the highest
	sp        uint64 // grows down
	minSP     uint64 // stack high-water mark (lowest sp seen)

	// xc is the guard/translation cache (compiled engine in CARAT mode; nil
	// otherwise — the reference interpreter never shares it); escBuf is the
	// escape-event batch, drained at world stops and at the end of the run.
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

// world holds the process's guest thread and implements runtime.World. Only
// the process's own goroutine enters it: a move policy at a safepoint of the
// guest, or a caller outside Run.
type world struct {
	v       *VM
	main    *thread // nil until Run creates it
	stopped bool    // world currently stopped (nested stops are a protocol bug)
	stopSet [1]runtime.RegSet
}

// xc returns the guest thread's guard/translation cache, or nil: before Run,
// on the reference interpreter, and outside CARAT mode.
func (w *world) xc() *guard.XCache {
	if w == nil || w.main == nil {
		return nil
	}
	return w.main.xc
}

// newThread allocates a stack region and creates the guest thread.
func (w *world) newThread() (*thread, error) {
	stackBytes := w.v.cfg.StackBytes
	if stackBytes == 0 {
		stackBytes = DefaultConfig().StackBytes
	}
	// The stack region is granted (guards must admit it) but NOT
	// registered as one big allocation: individual allocas are tracked by
	// the instrumentation, and nesting allocations is not representable.
	// In capsule mode the stack is carved from the heap instead —
	// "additional stacks are allocated from the process heap" (§3).
	var base uint64
	if w.v.cfg.Capsule {
		base = w.v.heap.alloc(stackBytes)
		if base == 0 {
			return nil, fmt.Errorf("vm: capsule heap exhausted allocating a stack")
		}
	} else {
		var err error
		base, err = w.v.proc.GrantRegion(stackBytes, guard.PermRW)
		if err != nil {
			return nil, fmt.Errorf("vm: stack region: %w", err)
		}
	}
	t := &thread{
		v:         w.v,
		stackBase: base,
		stackTop:  base + stackBytes,
		sp:        base + stackBytes,
		minSP:     base + stackBytes,
		escBuf:    w.v.rt.NewEscapeBuffer(),
	}
	if w.v.compiled && w.v.cfg.Mode == ModeCARAT {
		if t.xc = xcaches.Get(); t.xc == nil {
			t.xc = guard.NewXCache()
		}
	}
	w.main = t
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

// runMain creates the guest thread and runs main on it, on the calling
// goroutine.
func (w *world) runMain(main *ir.Func) (int64, error) {
	t, err := w.newThread()
	if err != nil {
		return 0, err
	}
	// Any parameters @main declares (no producer declares them, a hostile
	// module may) read zero.
	ret, err := w.v.call(t, main, make([]uint64, len(main.Params)))
	t.escBuf.Flush()
	return int64(ret), err
}

// StopTheWorld implements runtime.World. The guest thread is either the one
// raising the change request, at a safepoint, or not running, so its register
// state is already published — the moral equivalent of the signal-handler
// register dump in Figure 8. It returns the thread as the one RegSet (none
// before Run), in a slice the next stop rewrites.
func (w *world) StopTheWorld() []runtime.RegSet {
	if w.stopped {
		panic("vm: nested world stop")
	}
	w.stopped = true
	if w.main == nil {
		return nil
	}
	w.stopSet[0] = w.main
	return w.stopSet[:]
}

// ResumeTheWorld implements runtime.World; nothing needs releasing.
func (w *world) ResumeTheWorld() { w.stopped = false }

// rebaseStacks relocates the stack bookkeeping after a move of
// [src, src+length) to dst, if the stack region actually intersects the
// moved range: sp and spSave are boundary pointers (an empty stack's sp
// equals stackTop, which is numerically the base of whatever the kernel
// placed just above the stack), so naively rebasing them whenever their
// value falls inside a moved range would drag them along with moves of
// adjacent, unrelated pages.
func (w *world) rebaseStacks(src, dst, length uint64) {
	t := w.main
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
