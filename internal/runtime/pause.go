package runtime

import (
	"fmt"
	"math"

	"carat/internal/fault"
)

// The pause meter: window-by-window pause attribution for the move/swap
// protocol.
//
// Every map-changing operation runs the same phases, the same
// fault-injection draw order, and the same program-clock formulas. What the
// pause budget (SetPauseBudget) decides is how the stop-window *work* —
// table lookups, allocation scans, escape patches, register patches,
// metadata rebases — is sliced: into windows of at most one batch,
// separated by ResumeTheWorld/StopTheWorld round trips. Each window
// observes cycBarrier + (work in window) into the pause histograms, so no
// recorded pause ever exceeds PauseBound(BatchForBudget(budget)). Budget 0
// is one unbounded window: the whole operation is a single stop.
//
// Destination page allocation and the data copy run concurrently with the
// mutators whenever they get to run between windows, protected by the
// guard-level forwarding window; they are charged to the program clock
// regardless but land off-pause (see concurrent).

// MinMoveBatch is the smallest batch size (escape patches per stop window).
// The window budget (MinMoveBatch * cycEscapePatch = 220 cycles) must
// exceed the largest single metered work item (a table lookup,
// cycTableLookup = 130), so a lone item can never blow the bounded-pause
// guarantee.
const MinMoveBatch = 4

// PauseBound returns the worst-case single pause at the given batch size:
// one barrier round trip plus one full batch of patch work. The soak
// harness's bounded-pause gate asserts the observed pause maximum against
// this.
func PauseBound(batch int) uint64 {
	if batch < MinMoveBatch {
		batch = MinMoveBatch
	}
	return cycBarrier + uint64(batch)*cycEscapePatch
}

// BatchForBudget returns the largest batch size whose PauseBound stays
// within budget modeled cycles. Budgets too small for even the minimum
// batch clamp to MinMoveBatch.
func BatchForBudget(budget uint64) int {
	min := PauseBound(MinMoveBatch)
	if budget <= min {
		return MinMoveBatch
	}
	return int((budget - cycBarrier) / cycEscapePatch)
}

// unboundedWindow is the per-window work budget at pause budget 0: no work
// item ever overflows it, so the operation never crosses a boundary.
const unboundedWindow = math.MaxUint64

// pauseMeter accumulates the stop-window work of one map-changing
// operation. It closes a window whenever the next work item would overflow
// the per-window budget: observe the window's pause, resume the mutators,
// check the batch-boundary fault point, and stop again for the next batch.
type pauseMeter struct {
	r     *Runtime
	cause string
	w     World
	chunk uint64 // work-cycle budget per window
	acc   uint64 // work accumulated in the open window

	// inj, when set, is consulted for fault.MoveBatch at every window
	// boundary. Moves set it (the undo log makes a boundary abort safe);
	// swaps do not (they mutate nothing until their single commit step).
	inj *fault.Injector
}

// start readies the meter for one operation on the (stopped) installed
// world. This is the one place a pause budget becomes a batch size.
func (m *pauseMeter) start(r *Runtime, cause string, abortable bool) {
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	*m = pauseMeter{r: r, cause: cause, w: r.world, chunk: unboundedWindow}
	if r.pauseBudget > 0 {
		m.chunk = uint64(BatchForBudget(r.pauseBudget)) * cycEscapePatch
	}
	if abortable {
		m.inj = r.inj
	}
}

// bounded reports whether the mutators may run between this operation's
// windows — i.e. whether the forwarding window has anything to protect.
func (m *pauseMeter) bounded() bool { return m.chunk != unboundedWindow }

// add charges c cycles of stop-window work, closing the window first if c
// would overflow it. The returned error is a batch-boundary abort.
func (m *pauseMeter) add(c uint64) error {
	if m.acc > 0 && m.acc+c > m.chunk {
		if err := m.boundary(); err != nil {
			return err
		}
	}
	m.acc += c
	return nil
}

// addBulk charges n items of c cycles each, allowing window boundaries
// between items.
func (m *pauseMeter) addBulk(n int, c uint64) error {
	for i := 0; i < n; i++ {
		if err := m.add(c); err != nil {
			return err
		}
	}
	return nil
}

// concurrent charges c cycles of work a production runtime overlaps with
// the mutators under the forwarding window (destination page allocation,
// the data copy, swap-device I/O): off-pause when the mutators run between
// windows, part of the stop when the single unbounded window never lets
// them.
func (m *pauseMeter) concurrent(c uint64) {
	if !m.bounded() {
		m.acc += c
	}
}

// boundary closes the current window: observe its pause, resume the
// mutators to their next safepoints, and stop again for the next batch.
// The RegSet handles from the operation's opening stop stay valid across
// the round trip (World contract), so patching continues on the same
// snapshots. An injected fault.MoveBatch fires here — the one abort point
// that exists only because the window closed.
func (m *pauseMeter) boundary() error {
	m.finish()
	m.r.Stats.BatchPauses.Inc()
	m.w.ResumeTheWorld()
	fire := m.inj.Should(fault.MoveBatch)
	m.w.StopTheWorld()
	if fire {
		err := &fault.Error{Point: fault.MoveBatch, Detail: m.cause + " batch boundary"}
		return fmt.Errorf("runtime: %s aborted at batch boundary: %w", m.cause, err)
	}
	return nil
}

// finish observes the final window of a successful operation.
func (m *pauseMeter) finish() { m.closeWindow(m.cause) }

// closeWindow observes the open window under cause: the operation's own
// when it completes or crosses a boundary, the abort cause when it fails —
// windows closed before an abort were already published under the
// operation's own cause, so only the aborting window lands in the abort
// histogram.
func (m *pauseMeter) closeWindow(cause string) {
	m.r.observePause(cause, cycBarrier+m.acc)
	m.acc = 0
}
