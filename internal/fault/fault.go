// Package fault is a deterministic, seed-driven fault injector for the
// kernel/runtime move negotiation (Figure 8), the swap machinery, and the
// escape-tracking path. Production-scale CARAT must survive a move, patch,
// or swap failing mid-flight without corrupting an address space — the
// "pitfalls" class of bug that sank early software-VM ports — so every
// layer threads an *Injector through its failure-prone steps and CI soaks
// the whole system under randomized fault schedules (scripts/soak).
//
// Determinism is the design center: an Injector draws every decision from
// one seeded stream, so a harness that replays the same seed sees the
// exact same faults at the exact same points — a failing soak seed is a
// reproducer, not a flake. A nil *Injector is valid everywhere and injects
// nothing, so the hot paths carry no conditional wiring.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"carat/internal/obs"
)

// Point identifies one injection site class. The sites cover the failure
// surface of the Fig-8 move protocol and its neighbors: kernel-side
// vetoes, mid-move aborts between protocol steps, per-escape patch
// failures, swap I/O errors and slow paths, and escape-buffer flush
// failures.
type Point string

// Injection points.
const (
	// KernelVeto fails the kernel's destination negotiation (step 5 of
	// Figure 8): the kernel refuses the move and the runtime sees a veto.
	KernelVeto Point = "kernel.veto_move"
	// MoveAbort aborts an in-flight move at the protocol-step boundary
	// where it is checked; the runtime rolls the move back.
	MoveAbort Point = "move.abort"
	// PatchFail fails the patch of one individual escape location; the
	// runtime aborts and rolls back every escape already patched.
	PatchFail Point = "move.patch_escape"
	// SwapOutIO fails a swap-out before it mutates anything (the write to
	// the swap device failed).
	SwapOutIO Point = "swap.out_io"
	// SwapInIO fails a swap-in before it mutates anything (the read from
	// the swap device failed); callers retry.
	SwapInIO Point = "swap.in_io"
	// SwapDelay injects a modeled slow-path delay (in cycles) into swap
	// traffic rather than an error.
	SwapDelay Point = "swap.delay"
	// FlushFail fails one attempt to drain an escape buffer into the
	// allocation table; the buffer retries until the flush lands.
	FlushFail Point = "escape.flush"
	// MoveBatch aborts a move at a pause-window boundary — the window close
	// where mutator threads briefly resume between patch batches. Only
	// checked when a move outgrows its window (never at pause budget 0); the
	// runtime rolls the move back exactly as for MoveAbort.
	MoveBatch Point = "move.batch_boundary"
)

// Points lists every injection point, in a fixed order (rate schedules and
// reports iterate it).
var Points = []Point{
	KernelVeto, MoveAbort, PatchFail, SwapOutIO, SwapInIO, SwapDelay, FlushFail,
	MoveBatch,
}

// Error is the error an injected fault produces. Injected faults model
// transient conditions: callers that can retry (swap-in, mmpolicy moves)
// test for it with Injected and try again.
type Error struct {
	Point  Point
	Detail string
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s (%s)", e.Point, e.Detail)
}

// Injected reports whether err, or any error it wraps, is an injected
// fault.
func Injected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// Injector decides, deterministically from a seed, whether each checked
// injection point fires. Two mechanisms combine: per-point probability
// rates drawn from the seeded stream (the soak harness's randomized
// schedules), and one-shot armed countdowns that fire on the nth check of
// a point (tests forcing an abort at an exact protocol step). All entry
// points are safe on a nil receiver, which never injects.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rates map[Point]float64
	armed map[Point]int

	reg      *obs.Registry
	tr       *obs.Tracer
	checks   *obs.Counter
	injected *obs.Counter
	perPoint map[Point]*obs.Counter
}

// New creates an injector drawing from the given seed, with every rate
// zero. Metrics land in reg under carat.fault.* (a private registry is
// created if reg is nil).
func New(seed int64, reg *obs.Registry) *Injector {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Injector{
		rng:      rand.New(rand.NewSource(seed)),
		rates:    make(map[Point]float64),
		armed:    make(map[Point]int),
		reg:      reg,
		checks:   reg.Counter("carat.fault.checks"),
		injected: reg.Counter("carat.fault.injected"),
		perPoint: make(map[Point]*obs.Counter),
	}
}

// SetTracer attaches an event tracer: every injected fault then appears
// as a fault.inject instant (nil disables).
func (in *Injector) SetTracer(tr *obs.Tracer) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.tr = tr
}

// SetRate sets point p's injection probability (0 disables; rates at or
// above 1 always fire). A zero-rate point consumes nothing from the
// seeded stream, so disabled points do not perturb replay.
func (in *Injector) SetRate(p Point, rate float64) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if rate <= 0 {
		delete(in.rates, p)
		return
	}
	in.rates[p] = rate
}

// Arm schedules a one-shot fault: the nth subsequent check of p (1-based)
// fires regardless of p's rate. Tests use this to force an abort at an
// exact protocol step. Arming does not consume the seeded stream.
func (in *Injector) Arm(p Point, nth int) {
	if in == nil || nth < 1 {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed[p] = nth
}

// Should reports whether the fault at point p fires on this check.
func (in *Injector) Should(p Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	in.checks.Inc()
	fire := false
	if n, ok := in.armed[p]; ok {
		if n <= 1 {
			delete(in.armed, p)
			fire = true
		} else {
			in.armed[p] = n - 1
		}
	}
	if !fire {
		if rate, ok := in.rates[p]; ok && in.rng.Float64() < rate {
			fire = true
		}
	}
	var tr *obs.Tracer
	if fire {
		in.injected.Inc()
		c := in.perPoint[p]
		if c == nil {
			c = in.reg.Counter("carat.fault.injected." + string(p))
			in.perPoint[p] = c
		}
		c.Inc()
		tr = in.tr
	}
	in.mu.Unlock()
	if fire {
		tr.Instant("fault.inject", "fault", obs.A("point", string(p)))
	}
	return fire
}

// Fail returns an injected *Error for point p if it fires, else nil.
func (in *Injector) Fail(p Point, detail string) error {
	if in.Should(p) {
		return &Error{Point: p, Detail: detail}
	}
	return nil
}

// Delay returns a modeled delay in cycles for point p: zero unless the
// point fires, in which case the delay is 1..max drawn from the seeded
// stream.
func (in *Injector) Delay(p Point, max uint64) uint64 {
	if in == nil || max == 0 || !in.Should(p) {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return 1 + uint64(in.rng.Int63n(int64(max)))
}

// InjectedCount returns how many faults have fired so far.
func (in *Injector) InjectedCount() uint64 {
	if in == nil {
		return 0
	}
	return in.injected.Get()
}

// ParseSpec parses the "seed:rate" format of caratbench's -faults flag,
// e.g. "42:0.01" — seed 42, every point at 1% probability.
func ParseSpec(s string) (seed int64, rate float64, err error) {
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return 0, 0, fmt.Errorf("fault: spec %q not in seed:rate form", s)
	}
	seed, err = strconv.ParseInt(s[:colon], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("fault: bad seed in %q: %w", s, err)
	}
	rate, err = strconv.ParseFloat(s[colon+1:], 64)
	if err != nil {
		return 0, 0, fmt.Errorf("fault: bad rate in %q: %w", s, err)
	}
	if rate < 0 || rate > 1 {
		return 0, 0, fmt.Errorf("fault: rate %v outside [0,1]", rate)
	}
	return seed, rate, nil
}
