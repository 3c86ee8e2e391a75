package vm

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"sync"

	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/runtime"
)

// The VM's thread model: every program thread runs on its own goroutine,
// but a baton discipline ensures exactly one executes at a time, each until
// it joins an unfinished thread or finishes. This keeps execution
// deterministic (important for differential testing of the guard
// optimizations and page moves) while still exercising the full
// multi-thread world-stop protocol of Figure 8: when a change request
// arrives, all other threads are by construction parked with their
// register state published.

// xcaches recycles guard/translation caches across VMs. A cache is about
// 100 KB; a guest load that allocated (and zeroed) a fresh one would pay
// that on every short run caratd serves. VM.Release returns a run's caches,
// Reset first, so no entry of a previous owner is ever trusted.
var xcaches = sync.Pool{New: func() any { return guard.NewXCache() }}

type threadState int

const (
	tReady threadState = iota // ready or running
	tJoinWait
	tDone
)

type thread struct {
	id     int64
	v      *VM
	state  threadState
	waitOn int64 // valid in tJoinWait

	frames []*frame

	stackBase uint64 // lowest address of the stack region
	stackTop  uint64 // one past the highest
	sp        uint64 // grows down
	minSP     uint64 // stack high-water mark (lowest sp seen)

	entry   *ir.Func
	arg     uint64
	result  uint64
	err     error
	resume  chan struct{}
	yielded chan struct{}
	dead    bool // the run ended with t parked; see await

	// xc is this thread's guard/translation cache (compiled engine in CARAT
	// mode; nil otherwise — the reference interpreter never shares it);
	// escBuf is its escape-event batch, flushed at parks, joins and
	// completion.
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
	if t.dead {
		return
	}
	t.frames = t.frames[:len(t.frames)-1]
	if t.sp < fr.spSave {
		t.v.rt.UntrackStackRange(t.sp, fr.spSave)
	}
	t.sp = fr.spSave
}

// scheduler runs threads one at a time and implements runtime.World.
type scheduler struct {
	v       *VM
	threads []*thread
	nextID  int64
	stopped bool // world currently stopped (nested stops are a protocol bug)
	stopSet []runtime.RegSet

	// done is closed when runMain returns: see thread.await.
	done chan struct{}

	// External suspension — the per-process stop request of the ragged
	// safepoint protocol, raised as pendingStop in the VM's gate: the
	// running guest thread parks at its next block head until every
	// suspension is resumed.
	//
	// susMu/susCond guard suspendReqs (outstanding suspensions) and
	// running (a guest thread currently holds the baton). The mutex also
	// publishes everything a suspender mutates (register patches, table
	// rebases, region-set changes) to the guest before it resumes.
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

// suspend blocks until this process's guest execution is parked at a
// safepoint (or not running at all) and returns a resume function. Nested
// suspensions stack; the guest resumes when the last one is released.
// Callable from any goroutine EXCEPT the process's own guest threads —
// a guest suspending itself would deadlock (its own park is what the
// suspender waits for). While suspended, the caller may stop this
// process's world (moves, protection changes, swaps) without racing the
// guest: every thread is at a safepoint with its register state
// published, exactly the Figure-8 precondition.
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

// park holds the calling guest thread at its safepoint until every
// outstanding suspension is resumed. The thread's escape batch is flushed
// first so the suspender observes a fully-applied allocation map (same
// invariant as a world stop). Charges are already flushed: park is act's,
// and the compiled engine flushes before it acts.
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

// newThread allocates a stack region and creates a parked thread.
func (s *scheduler) newThread(entry *ir.Func, arg uint64) (*thread, error) {
	stackBytes := s.v.cfg.StackBytes
	if stackBytes == 0 {
		stackBytes = DefaultConfig().StackBytes
	}
	// The stack region is granted (guards must admit it) but NOT
	// registered as one big allocation: individual allocas are tracked by
	// the instrumentation, and nesting allocations is not representable.
	// In capsule mode stacks are carved from the heap instead — "additional
	// stacks are allocated from the process heap" (§3).
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
	s.nextID++
	t := &thread{
		id:        s.nextID,
		v:         s.v,
		state:     tReady,
		stackBase: base,
		stackTop:  base + stackBytes,
		sp:        base + stackBytes,
		minSP:     base + stackBytes,
		entry:     entry,
		arg:       arg,
		resume:    make(chan struct{}),
		yielded:   make(chan struct{}),
		escBuf:    s.v.rt.NewEscapeBuffer(),
	}
	if s.v.compiled && s.v.cfg.Mode == ModeCARAT {
		t.xc = xcaches.Get().(*guard.XCache)
	}
	s.threads = append(s.threads, t)
	go t.run()
	return t, nil
}

// await blocks until the scheduler hands t the baton. If the run ends with t
// still parked — another thread failed, or the guest deadlocked — nobody ever
// will: the goroutine exits instead of leaking, and its frames unwind without
// touching the machine, which by then belongs to whoever called Run.
func (t *thread) await() {
	select {
	case <-t.resume:
	case <-t.v.sched.done:
		t.dead = true
		goruntime.Goexit()
	}
}

// run is a thread goroutine: wait for the baton, execute, hand it back.
func (t *thread) run() {
	t.await()
	// The entry receives arg as its first parameter; any further ones (no
	// producer declares them, a hostile module may) read zero.
	args := make([]uint64, len(t.entry.Params))
	if len(args) > 0 {
		args[0] = t.arg
	}
	ret, err := t.v.call(t, t.entry, args)
	t.result, t.err = ret, err
	t.state = tDone
	t.escBuf.Flush()
	t.yielded <- struct{}{}
}

// foldedStack renders this thread's live call stack root-first in the
// folded "a;b;c" form the profiler aggregates on.
func (t *thread) foldedStack() string {
	if len(t.frames) == 0 {
		return t.entry.Name
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

// runMain creates the main thread and hands the baton on until every thread
// finishes. It returns main's result. The caller (VM.Run) must
// hold the running window via beginRun/endRun.
func (s *scheduler) runMain(main *ir.Func) (int64, error) {
	s.done = make(chan struct{})
	defer close(s.done)
	mt, err := s.newThread(main, 0)
	if err != nil {
		return 0, err
	}
	for {
		t := s.pick()
		if t == nil {
			break
		}
		t.resume <- struct{}{}
		<-t.yielded // t joined or finished
		if t.state == tDone && t.err != nil {
			return 0, t.err
		}
		// Wake joiners of finished threads.
		for _, w := range s.threads {
			if w.state == tJoinWait {
				if tgt := s.byID(w.waitOn); tgt == nil || tgt.state == tDone {
					w.state = tReady
				}
			}
		}
	}
	// Nothing is ready. A thread still waiting on a join can never be woken:
	// the guest deadlocked itself (a thread joining itself, two joining each
	// other).
	for _, t := range s.threads {
		if t.state == tJoinWait {
			return 0, &StopError{Reason: StopDeadlock}
		}
	}
	if mt.err != nil {
		return 0, mt.err
	}
	return int64(mt.result), nil
}

// pick returns the lowest-index ready thread, or nil when none is. A thread
// runs until it blocks, and nothing it does readies a lower-index thread
// (spawns append), so a time slice could never switch threads: there is
// none.
func (s *scheduler) pick() *thread {
	for _, t := range s.threads {
		if t.state == tReady {
			return t
		}
	}
	return nil
}

func (s *scheduler) byID(id int64) *thread {
	for _, t := range s.threads {
		if t.id == id {
			return t
		}
	}
	return nil
}

// StopTheWorld implements runtime.World. Under the baton discipline every
// thread except (at most) the one triggering the change request is parked, so the register state of all threads is already
// published — the moral equivalent of the signal-handler register dump in
// Figure 8. It returns each live thread as a RegSet, in a slice the next
// stop rewrites: no mutator runs between an operation's stops, so it
// rewrites the same threads.
func (s *scheduler) StopTheWorld() []runtime.RegSet {
	if s.stopped {
		panic("vm: nested world stop")
	}
	s.stopped = true
	out := s.stopSet[:0]
	for _, t := range s.threads {
		if t.state == tDone {
			continue
		}
		out = append(out, t)
	}
	s.stopSet = out
	return out
}

// ResumeTheWorld implements runtime.World; with the baton discipline
// nothing needs releasing, and no mutator runs before a move's next
// StopTheWorld, so earlier RegSet handles stay valid (a thread's registers
// read through to its live frames).
func (s *scheduler) ResumeTheWorld() { s.stopped = false }

// rebaseStacks relocates thread stack bookkeeping after a move of
// [src, src+length) to dst. Only threads whose stack region actually
// intersects the moved range are touched: sp and spSave are boundary
// pointers (an empty stack's sp equals stackTop, which is numerically the
// base of whatever the kernel placed just above the stack), so naively
// rebasing them whenever their value falls inside a moved range would drag
// them along with moves of adjacent, unrelated pages.
func (s *scheduler) rebaseStacks(src, dst, length uint64) {
	reb := func(a uint64) uint64 {
		if a >= src && a < src+length {
			return a - src + dst
		}
		return a
	}
	for _, t := range s.threads {
		if t.stackBase >= src+length || src >= t.stackTop {
			continue // this thread's stack did not move
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

// spawn implements the thread_spawn builtin: fnAddr must be a function
// code address; the new thread receives arg. Returns the thread id.
func (s *scheduler) spawn(fnAddr, arg uint64) (int64, error) {
	for i, a := range s.v.funcPhys {
		if a == fnAddr {
			t, err := s.newThread(s.v.prog.mod.Funcs[i], arg)
			if err != nil {
				return 0, err
			}
			return t.id, nil
		}
	}
	return 0, fmt.Errorf("vm: thread_spawn of non-function address %#x", fnAddr)
}

// join implements the thread_join builtin from thread cur: it flushes cur's
// escape batch (escape events apply in program order across the switch) and
// hands the baton back until the scheduler wakes it.
func (s *scheduler) join(cur *thread, id int64) {
	tgt := s.byID(id)
	if tgt == nil || tgt.state == tDone {
		return
	}
	cur.state = tJoinWait
	cur.waitOn = id
	cur.escBuf.Flush()
	cur.yielded <- struct{}{}
	cur.await()
}
