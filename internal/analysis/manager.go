package analysis

import (
	"sync/atomic"

	"carat/internal/ir"
)

// Analysis manager: typed keys, a per-function result cache, and explicit
// invalidation. Passes look analyses up through FuncAnalyses instead of
// constructing them; results are cached until a transformation declares
// (via its preserved set) that they may be stale. The design mirrors
// LLVM's new pass manager: an analysis survives a pass only if the pass
// preserves it AND everything it was derived from.

// ID enumerates the cacheable analyses.
type ID int

// Analysis identifiers, ordered so that every analysis appears after its
// dependencies (Invalidate relies on this when computing the kept set).
const (
	IDCFG ID = iota
	IDDom
	IDLoops
	IDAlias
	IDRanges
	IDInvariance
	IDSCEV
	numIDs
)

// String names the analysis for logs and test failures.
func (id ID) String() string {
	switch id {
	case IDCFG:
		return "cfg"
	case IDDom:
		return "domtree"
	case IDLoops:
		return "loops"
	case IDAlias:
		return "alias"
	case IDRanges:
		return "ranges"
	case IDInvariance:
		return "invariance"
	case IDSCEV:
		return "scev"
	}
	return "unknown"
}

// Preserved is a set of analysis IDs a pass promises to keep valid.
type Preserved uint16

// PreserveNone is the empty set: every cached analysis is dropped.
const PreserveNone Preserved = 0

// PreserveAll keeps every cached analysis (an analysis-only pass).
const PreserveAll Preserved = 1<<numIDs - 1

// Preserve builds a preserved set from the given IDs.
func Preserve(ids ...ID) Preserved {
	var p Preserved
	for _, id := range ids {
		p |= 1 << id
	}
	return p
}

// Has reports whether id is in the set.
func (p Preserved) Has(id ID) bool { return p&(1<<id) != 0 }

// deps records what each analysis is derived from. An analysis is only
// valid while all of its dependencies are; Invalidate closes over this
// table so a pass cannot accidentally keep a dominator tree alive atop a
// discarded CFG.
var deps = [numIDs]Preserved{
	IDDom:        Preserve(IDCFG),
	IDLoops:      Preserve(IDCFG, IDDom),
	IDInvariance: Preserve(IDCFG, IDDom, IDLoops, IDAlias),
	IDSCEV:       Preserve(IDCFG, IDDom, IDLoops, IDAlias, IDInvariance),
}

// closure restricts p to the analyses whose full dependency chain is also
// preserved. IDs are ordered dependencies-first, so one forward sweep
// suffices.
func (p Preserved) closure() Preserved {
	var kept Preserved
	for id := ID(0); id < numIDs; id++ {
		if p.Has(id) && kept&deps[id] == deps[id] {
			kept |= 1 << id
		}
	}
	return kept
}

// CacheStats counts analysis-cache traffic. The counters are atomic so one
// CacheStats can be shared by every function of a parallel compilation.
type CacheStats struct {
	Hits          atomic.Uint64
	Misses        atomic.Uint64 // first-ever computation of an analysis
	Invalidations atomic.Uint64 // cached results dropped by Invalidate
	Recomputes    atomic.Uint64 // computations after an invalidation
}

// CacheSnapshot is a plain-value copy of CacheStats.
type CacheSnapshot struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
	Recomputes    uint64 `json:"recomputes"`
}

// Snapshot returns the current counter values.
func (s *CacheStats) Snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits:          s.Hits.Load(),
		Misses:        s.Misses.Load(),
		Invalidations: s.Invalidations.Load(),
		Recomputes:    s.Recomputes.Load(),
	}
}

// Key is a typed handle to a whole-function analysis: an identity plus the
// recipe for computing it. The compute function receives the FuncAnalyses
// so derived analyses (domtree, loops) fetch their inputs through the
// cache, which is what makes cross-pass sharing observable as hits.
type Key[T any] struct {
	id      ID
	compute func(*FuncAnalyses) T
}

// LoopKey is a typed handle to a per-loop analysis; results are cached per
// loop — by its header, which no two loops of a forest share — under the
// key's ID.
type LoopKey[T any] struct {
	id      ID
	compute func(*FuncAnalyses, *Loop) T
}

// The registered analyses. Every pass in internal/passes goes through
// these keys; adding an analysis means adding an ID, a deps entry, and a
// key here.
var (
	// CFGKey caches block structure: RPO order, reachability, edges.
	CFGKey = Key[*CFG]{IDCFG, func(fa *FuncAnalyses) *CFG { return NewCFG(fa.F) }}
	// DomKey caches the dominator tree (derived from the CFG).
	DomKey = Key[*DomTree]{IDDom, func(fa *FuncAnalyses) *DomTree { return NewDomTree(Get(fa, CFGKey)) }}
	// LoopsKey caches the natural-loop forest.
	LoopsKey = Key[*LoopForest]{IDLoops, func(fa *FuncAnalyses) *LoopForest {
		return FindLoops(Get(fa, CFGKey), Get(fa, DomKey))
	}}
	// AliasKey caches the chain alias analysis (base-object + points-to).
	AliasKey = Key[AliasAnalysis]{IDAlias, func(fa *FuncAnalyses) AliasAnalysis { return NewChain(fa.F) }}
	// RangesKey caches the value-range memo table.
	RangesKey = Key[*Ranges]{IDRanges, func(fa *FuncAnalyses) *Ranges { return NewRanges(fa.F) }}
	// InvarianceKey caches per-loop invariance facts.
	InvarianceKey = LoopKey[*Invariance]{IDInvariance, func(fa *FuncAnalyses, l *Loop) *Invariance {
		return NewInvariance(l, Get(fa, AliasKey))
	}}
	// SCEVKey caches per-loop scalar-evolution results.
	SCEVKey = LoopKey[*SCEV]{IDSCEV, func(fa *FuncAnalyses, l *Loop) *SCEV {
		return NewSCEV(Get(fa, CFGKey), l, GetLoop(fa, InvarianceKey, l))
	}}
)

// FuncAnalyses is the per-function analysis cache a pass manager threads
// through its passes. It is not safe for concurrent use; the parallel pass
// manager gives each function its own instance (sharing only the atomic
// CacheStats).
type FuncAnalyses struct {
	F     *ir.Func
	stats *CacheStats

	slots     [numIDs]any
	loopSlots [numIDs][]any // by the loop header's Block.Idx
	// ever marks analyses computed at least once, distinguishing a first
	// miss from a recompute after invalidation.
	ever [numIDs]bool
}

// NewFuncAnalyses returns an empty cache for f. stats may be nil, in which
// case a private CacheStats is allocated.
func NewFuncAnalyses(f *ir.Func, stats *CacheStats) *FuncAnalyses {
	if stats == nil {
		stats = &CacheStats{}
	}
	return &FuncAnalyses{F: f, stats: stats}
}

// Get returns the cached result for k, computing and caching it on a miss.
func Get[T any](fa *FuncAnalyses, k Key[T]) T {
	if v := fa.slots[k.id]; v != nil {
		fa.stats.Hits.Add(1)
		return v.(T)
	}
	fa.countCompute(k.id)
	v := k.compute(fa)
	fa.slots[k.id] = v
	fa.ever[k.id] = true
	return v
}

// GetLoop returns the cached per-loop result for k, computing it on a miss.
func GetLoop[T any](fa *FuncAnalyses, k LoopKey[T], l *Loop) T {
	if fa.loopSlots[k.id] == nil {
		fa.loopSlots[k.id] = make([]any, len(fa.F.Blocks))
	}
	slot := &fa.loopSlots[k.id][l.Header.Idx]
	if *slot != nil {
		fa.stats.Hits.Add(1)
		return (*slot).(T)
	}
	fa.countCompute(k.id)
	v := k.compute(fa, l)
	*slot = v
	fa.ever[k.id] = true
	return v
}

func (fa *FuncAnalyses) countCompute(id ID) {
	if fa.ever[id] {
		fa.stats.Recomputes.Add(1)
	} else {
		fa.stats.Misses.Add(1)
	}
}

// Typed convenience accessors for the registered analyses.

// CFG returns the function's control-flow graph.
func (fa *FuncAnalyses) CFG() *CFG { return Get(fa, CFGKey) }

// Dom returns the dominator tree.
func (fa *FuncAnalyses) Dom() *DomTree { return Get(fa, DomKey) }

// Loops returns the natural-loop forest.
func (fa *FuncAnalyses) Loops() *LoopForest { return Get(fa, LoopsKey) }

// Alias returns the chain alias analysis.
func (fa *FuncAnalyses) Alias() AliasAnalysis { return Get(fa, AliasKey) }

// Ranges returns the value-range memo table.
func (fa *FuncAnalyses) Ranges() *Ranges { return Get(fa, RangesKey) }

// Invariance returns loop l's invariance facts.
func (fa *FuncAnalyses) Invariance(l *Loop) *Invariance { return GetLoop(fa, InvarianceKey, l) }

// SCEV returns loop l's scalar-evolution analysis.
func (fa *FuncAnalyses) SCEV(l *Loop) *SCEV { return GetLoop(fa, SCEVKey, l) }

// Invalidate drops every cached analysis not covered by preserved. The
// preserved set is closed over dependencies first: keeping the loop forest
// without also keeping the CFG and dominator tree it was built from keeps
// nothing.
func (fa *FuncAnalyses) Invalidate(preserved Preserved) {
	kept := preserved.closure()
	for id := ID(0); id < numIDs; id++ {
		if kept.Has(id) {
			continue
		}
		if fa.slots[id] != nil {
			fa.slots[id] = nil
			fa.stats.Invalidations.Add(1)
		}
		for i, v := range fa.loopSlots[id] {
			if v != nil {
				fa.loopSlots[id][i] = nil
				fa.stats.Invalidations.Add(1)
			}
		}
	}
}
