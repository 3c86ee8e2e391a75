package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Cycle-sampling profiler: every Interval *model* cycles the VM takes one
// sample at a safepoint, attributing it to (folded guest stack, runtime
// phase). Because the sampling clock is the simulated cycle counter — not
// host time — profiles are deterministic: the same program yields the
// same samples on any machine at any host speed.
//
// Phases partition every modeled cycle the machine spends:
//
//	exec          the interpreter retiring guest instructions (includes
//	              the paging model's walk/fault cycles in traditional mode)
//	guard         CARAT guard evaluation (the compiler-injected checks)
//	escape-flush  runtime tracking callbacks and escape-batch drains
//	move          the Fig-8 move protocol (world stopped)
//	swap          swap-out/swap-in patch + copy work (world stopped)
//	policy        the mmpolicy daemon's own scans and dispatch
//
// exec samples are taken live at safepoints and carry the real guest call
// stack. The other phases run inside the runtime/kernel where no guest
// stack exists; their cycle counters are folded into samples at the same
// Interval granularity (one sample per Interval cycles, remainder carried
// forward), so per-phase sample totals reconcile with the underlying
// cycle-attribution counters to within one sampling interval per track.
//
// Concurrency: the hot path (Track.Sample with no sample due) is a single
// uint64 comparison on a track owned by one goroutine — no locks, no
// atomics. When a sample IS due, the owner increments an atomic counter
// looked up in a per-track map; map mutation (first sighting of a stack)
// and snapshotting take the track mutex. An HTTP scrape can therefore
// read a live profile mid-run without stopping or skewing the program.

// DefaultSampleInterval is the default sampling period in model cycles.
const DefaultSampleInterval = 4096

// Profile document schema identifiers (see DESIGN.md "Observability").
const (
	ProfileSchema        = "carat.profile"
	ProfileSchemaVersion = 1
)

// sampleKey identifies one folded-stack bucket.
type sampleKey struct {
	stack string // "main;hot;inner" — root first, ';'-separated
	phase string
}

// Sampler aggregates cycle samples from any number of tracks (one per VM,
// plus pseudo-tracks for daemon-side phases).
type Sampler struct {
	// Interval is the sampling period in model cycles. Fixed at creation.
	Interval uint64

	mu     sync.Mutex
	tracks []*Track
}

// NewSampler returns a sampler with the given period (0 selects
// DefaultSampleInterval).
func NewSampler(interval uint64) *Sampler {
	if interval == 0 {
		interval = DefaultSampleInterval
	}
	return &Sampler{Interval: interval}
}

// Track is one sampled cycle stream — a VM's model clock, or a daemon's.
// All Sample/FoldPhase calls on a track must come from a single goroutine
// at a time (a VM samples from its guest's goroutine); snapshotting from
// other goroutines is safe at any moment.
type Track struct {
	s *Sampler

	// Owner-goroutine state, never touched by readers.
	next        uint64 // model cycle at which the next exec sample is due
	lastSampled uint64 // exec cycles already converted to samples
	phaseRem    map[string]uint64

	mu     sync.Mutex
	counts map[sampleKey]*atomic.Uint64
	total  atomic.Uint64
}

// NewTrack registers a new sampled cycle stream.
func (s *Sampler) NewTrack() *Track {
	t := &Track{
		s:        s,
		next:     s.Interval,
		counts:   make(map[sampleKey]*atomic.Uint64),
		phaseRem: make(map[string]uint64),
	}
	s.mu.Lock()
	s.tracks = append(s.tracks, t)
	s.mu.Unlock()
	return t
}

// Next is the model cycle at which the next exec sample is due. Comparing
// the clock against it is the entire hot-path cost of an attached profiler.
func (t *Track) Next() uint64 { return t.next }

// Sample records exec samples for every whole interval elapsed up to
// model cycle now, attributed to the stack that stackFn builds. stackFn
// runs only when at least one sample is due; call sites compare against Next
// first, so stack construction stays off the hot path.
func (t *Track) Sample(now uint64, stackFn func() string) {
	if now < t.next {
		return
	}
	n := (now - t.lastSampled) / t.s.Interval
	t.lastSampled += n * t.s.Interval
	t.next = t.lastSampled + t.s.Interval
	t.add(sampleKey{stack: stackFn(), phase: "exec"}, n)
}

// FoldPhase converts a phase's cumulative cycle counter into samples:
// totalCycles is the phase's all-time total, and the track remembers how
// much it has already folded, carrying the sub-interval remainder forward.
// After the final fold, phase samples * Interval differs from the phase's
// cycle counter by less than one Interval.
func (t *Track) FoldPhase(phase string, totalCycles uint64) {
	folded := t.phaseRem[phase] // cycles already turned into samples
	if totalCycles <= folded {
		return
	}
	n := (totalCycles - folded) / t.s.Interval
	if n == 0 {
		return
	}
	t.phaseRem[phase] = folded + n*t.s.Interval
	t.add(sampleKey{stack: phase, phase: phase}, n)
}

// add increments a bucket by n samples. Existing buckets cost one map read
// plus an atomic add; new buckets take the track mutex once.
func (t *Track) add(k sampleKey, n uint64) {
	if n == 0 {
		return
	}
	t.mu.Lock()
	c, ok := t.counts[k]
	if !ok {
		c = &atomic.Uint64{}
		t.counts[k] = c
	}
	t.mu.Unlock()
	c.Add(n)
	t.total.Add(n)
}

// FoldedStack is one aggregated profile bucket.
type FoldedStack struct {
	// Stack is the folded call stack, root first, ';'-separated. For
	// non-exec phases it is the phase name itself.
	Stack string `json:"stack"`
	// Phase is the runtime phase the samples belong to.
	Phase string `json:"phase"`
	// Samples is the number of sampling intervals attributed to the stack.
	Samples uint64 `json:"samples"`
}

// ProfileDoc is the versioned machine-readable profile (ProfileSchema):
// folded stacks plus the sample metadata needed to reconstruct cycles
// (cycles ≈ samples * interval_cycles).
type ProfileDoc struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// IntervalCycles is the sampling period in model cycles.
	IntervalCycles uint64 `json:"interval_cycles"`
	// Tracks is the number of sampled cycle streams that contributed.
	Tracks       int           `json:"tracks"`
	TotalSamples uint64        `json:"total_samples"`
	Stacks       []FoldedStack `json:"stacks"`
	// PhaseTotals sums samples per runtime phase.
	PhaseTotals map[string]uint64 `json:"phase_totals"`
}

// Snapshot aggregates every track into one profile document. Stacks merge
// across tracks and sort by descending samples (ties by stack, then phase,
// for deterministic output).
func (s *Sampler) Snapshot() *ProfileDoc {
	s.mu.Lock()
	tracks := append([]*Track(nil), s.tracks...)
	s.mu.Unlock()

	merged := make(map[sampleKey]uint64)
	doc := &ProfileDoc{
		Schema:         ProfileSchema,
		Version:        ProfileSchemaVersion,
		IntervalCycles: s.Interval,
		Tracks:         len(tracks),
		PhaseTotals:    make(map[string]uint64),
	}
	for _, t := range tracks {
		t.mu.Lock()
		for k, c := range t.counts {
			merged[k] += c.Load()
		}
		t.mu.Unlock()
	}
	doc.Stacks = make([]FoldedStack, 0, len(merged))
	for k, n := range merged {
		doc.Stacks = append(doc.Stacks, FoldedStack{Stack: k.stack, Phase: k.phase, Samples: n})
		doc.PhaseTotals[k.phase] += n
		doc.TotalSamples += n
	}
	sort.Slice(doc.Stacks, func(i, j int) bool {
		a, b := doc.Stacks[i], doc.Stacks[j]
		if a.Samples != b.Samples {
			return a.Samples > b.Samples
		}
		if a.Stack != b.Stack {
			return a.Stack < b.Stack
		}
		return a.Phase < b.Phase
	})
	return doc
}

// Validate checks the profile against itself: every stack names its phase,
// and the stacks and the per-phase totals each sum to total_samples.
func (doc *ProfileDoc) Validate() error {
	if doc.IntervalCycles == 0 {
		return fmt.Errorf("interval_cycles is zero")
	}
	var stackSum, phaseSum uint64
	for _, s := range doc.Stacks {
		if s.Phase == "" {
			return fmt.Errorf("stack %q has no phase", s.Stack)
		}
		stackSum += s.Samples
	}
	for _, n := range doc.PhaseTotals {
		phaseSum += n
	}
	if stackSum != doc.TotalSamples || phaseSum != doc.TotalSamples {
		return fmt.Errorf("stacks sum to %d samples and phase_totals to %d, total_samples says %d",
			stackSum, phaseSum, doc.TotalSamples)
	}
	return nil
}

// PhaseSamples returns the current per-phase sample totals (a cheap
// subset of Snapshot, used by reconciliation tests).
func (s *Sampler) PhaseSamples() map[string]uint64 {
	return s.Snapshot().PhaseTotals
}

// WriteJSON writes the profile as an indented, versioned JSON document.
func (doc *ProfileDoc) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteFolded writes the profile in the standard folded-stack format
// consumed by flamegraph tooling: one "phase;frame1;frame2 count" line
// per bucket. The phase is the root frame, so a flamegraph's first tier
// is the runtime-phase decomposition.
func (doc *ProfileDoc) WriteFolded(w io.Writer) error {
	for _, fs := range doc.Stacks {
		line := fs.Phase
		if fs.Phase == "exec" && fs.Stack != "" {
			line += ";" + fs.Stack
		}
		if _, err := io.WriteString(w, line); err != nil {
			return err
		}
		if _, err := io.WriteString(w, " "); err != nil {
			return err
		}
		var buf [20]byte
		b := appendUint(buf[:0], fs.Samples)
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

func appendUint(b []byte, v uint64) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}
