package server

import (
	"sync/atomic"

	"carat/internal/kernel"
	"carat/internal/obs"
)

// Admission states, published as the carat.server.admission_state gauge.
// The controller is a small state machine evaluated per request:
//
//	Admitting ──(inflight cap or memory over watermark)──▶ Throttled
//	Throttled ──(pressure subsides)─────────────────────▶ Admitting
//	any ──(Drain)──▶ Draining (terminal: no new work, in-flight finishes)
const (
	stateAdmitting = iota
	stateThrottled
	stateDraining
)

// admission decides whether a request may start executing. Two pressure
// signals gate admission before any per-tenant quota is consulted: the
// global in-flight cap (how many processes the machine runs at once) and
// the mmpolicy free-memory watermark (fraction of physical pages in use).
// Rejections are cheap 429s with Retry-After — the alternative, admitting
// everyone, degrades every tenant at once.
type admission struct {
	kern        *kernel.Kernel
	maxInflight int64
	highWater   float64 // reject when used-page fraction exceeds this
	retryAfter  int     // seconds, advertised on 429

	inflight atomic.Int64
	peak     atomic.Int64 // high-water mark of inflight over the process lifetime
	draining atomic.Bool

	inflightG  *obs.Gauge
	peakG      *obs.Gauge
	stateG     *obs.Gauge
	rejections *obs.Counter
}

func newAdmission(k *kernel.Kernel, maxInflight int, highWater float64, retryAfter int, reg *obs.Registry) *admission {
	return &admission{
		kern:        k,
		maxInflight: int64(maxInflight),
		highWater:   highWater,
		retryAfter:  retryAfter,
		inflightG:   reg.Gauge("carat.server.inflight"),
		peakG:       reg.Gauge("carat.server.inflight_peak"),
		stateG:      reg.Gauge("carat.server.admission_state"),
		rejections:  reg.Counter("carat.server.admission_rejections"),
	}
}

// overWatermark reports whether the shared machine's used-page fraction
// exceeds the high watermark — the same free-memory signal the mmpolicy
// tiering daemon steers by.
func (a *admission) overWatermark() bool {
	total := a.kern.Alloc.TotalPages()
	if total == 0 {
		return false
	}
	used := total - a.kern.Alloc.FreePages()
	return float64(used)/float64(total) > a.highWater
}

// admit tries to claim an execution slot. On success it returns a release
// function and ok=true. On rejection ok=false and httpStatus/reason say
// why (503 while draining, 429 otherwise).
func (a *admission) admit() (release func(), httpStatus int, reason string, ok bool) {
	if a.draining.Load() {
		return nil, 503, "draining", false
	}
	if n := a.inflight.Add(1); n > a.maxInflight {
		a.inflight.Add(-1)
		a.rejections.Inc()
		a.stateG.Set(stateThrottled)
		return nil, 429, "inflight cap", false
	}
	if a.overWatermark() {
		a.inflight.Add(-1)
		a.rejections.Inc()
		a.stateG.Set(stateThrottled)
		return nil, 429, "memory watermark", false
	}
	a.stateG.Set(stateAdmitting)
	n := a.inflight.Load()
	a.inflightG.Set(uint64(n))
	// Lifetime high-water mark: TestRunDeterministicUnderConcurrency
	// asserts it exceeds 1 under a concurrent session load — the proof the
	// server actually overlaps tenant executions instead of silently
	// serializing them.
	for {
		p := a.peak.Load()
		if n <= p {
			break
		}
		if a.peak.CompareAndSwap(p, n) {
			a.peakG.Set(uint64(n))
			break
		}
	}
	return func() {
		a.inflight.Add(-1)
		a.inflightG.Set(uint64(max64(a.inflight.Load(), 0)))
	}, 0, "", true
}

// setDraining flips the controller into its terminal state.
func (a *admission) setDraining() {
	a.draining.Store(true)
	a.stateG.Set(stateDraining)
}

// RetryAfter returns the advertised backoff in seconds.
func (a *admission) RetryAfter() int { return a.retryAfter }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
