package tlb

import "carat/internal/obs"

// Hierarchy models the full translation path of a modern x64 core
// (§2.1/§3): a 64-entry L1 DTLB, a 1536-entry L2 STLB, and a pagewalker
// with a paging-structure cache that skips upper levels of the radix walk
// when they were recently used. The geometry defaults follow the paper's
// description of contemporary Intel parts (64 DTLB entries; 1536 STLB
// entries on the then-current generation).
type Hierarchy struct {
	L1 *TLB
	L2 *TLB
	PT *PageTable

	// walkCache caches upper-level paging structures, indexed by the
	// PML4/PDPT/PD prefix of the VPN, skipping that many levels on a hit.
	// Eviction is FIFO — wcFIFO holds the keys in insertion order, a ring
	// once full, wcNext its oldest slot — so modeled walk cycles are a
	// function of the access stream alone, never of Go's map iteration order.
	walkCache map[uint64]int
	wcFIFO    []uint64
	wcNext    int
	wcCap     int

	Stats HierStats
}

// HierStats is what the hierarchy counts, in plain fields it owns: the tlb
// layer owns all translation-path accounting (lookups, misses, walks, walk
// cycles, translation faults), published as carat.tlb.* by Publish. Read
// fields with Get().
type HierStats struct {
	Lookups    obs.Counter
	L1Misses   obs.Counter
	L2Misses   obs.Counter
	Walks      obs.Counter
	WalkCycles obs.Counter
	Faults     obs.Counter
}

// Publish adds the hierarchy's counts into s, once the run is over.
func (h *Hierarchy) Publish(s obs.Sink) {
	st := &h.Stats
	s.Add("carat.tlb.lookups", st.Lookups.Get())
	s.Add("carat.tlb.l1_misses", st.L1Misses.Get())
	s.Add("carat.tlb.l2_misses", st.L2Misses.Get())
	s.Add("carat.tlb.walks", st.Walks.Get())
	s.Add("carat.tlb.walk_cycles", st.WalkCycles.Get())
	s.Add("carat.tlb.faults", st.Faults.Get())
}

// Cycle cost constants for the walk model. A full four-level walk touches
// four paging-structure lines; each costs an L2/LLC-latency access. With
// walk-cache hits, upper levels are skipped. This puts the average walk in
// the tens of cycles, matching the paper's measured 47-cycle average and
// ~108-cycle worst case.
const (
	cycPerWalkLevel = 26 // one paging-structure access (L2-ish latency)
	cycL2TLBProbe   = 7  // STLB probe on an L1 miss
)

// NewHierarchy builds the default hierarchy over the given page table.
func NewHierarchy(pt *PageTable) *Hierarchy {
	return &Hierarchy{
		L1:        NewTLB(64, 4),
		L2:        NewTLB(1536, 12),
		PT:        pt,
		walkCache: make(map[uint64]int),
		wcCap:     32,
	}
}

// Translate resolves vaddr and returns the physical address and the cycle
// cost beyond a TLB hit (0 for an L1 hit). A translation failure (page
// fault) returns ok=false.
func (h *Hierarchy) Translate(vaddr uint64) (paddr uint64, cycles uint64, ok bool) {
	h.Stats.Lookups.Inc()
	vpn := vaddr >> PageShift
	off := vaddr & (PageSize - 1)
	if ppn, hit := h.L1.Lookup(vpn); hit {
		return ppn<<PageShift | off, 0, true
	}
	h.Stats.L1Misses.Inc()
	cycles += cycL2TLBProbe
	if ppn, hit := h.L2.Lookup(vpn); hit {
		h.L1.Insert(vpn, ppn)
		return ppn<<PageShift | off, cycles, true
	}
	h.Stats.L2Misses.Inc()

	// Pagewalk with paging-structure cache: a hit on the PD prefix skips
	// the top three levels; on the PDPT prefix, two; on the PML4, one.
	h.Stats.Walks.Inc()
	levels := Levels
	for skip := Levels - 1; skip >= 1; skip-- {
		prefix := vpn >> uint(9*(Levels-1-skip)) << 8 // tag with skip count
		if got, hit := h.walkCache[prefix|uint64(skip)]; hit && got == skip {
			levels = Levels - skip
			break
		}
	}
	ppn, _, err := h.PT.Walk(vpn)
	walkCycles := uint64(levels) * cycPerWalkLevel
	cycles += walkCycles
	h.Stats.WalkCycles.Add(walkCycles)
	if err != nil {
		h.Stats.Faults.Inc()
		return 0, cycles, false
	}
	// Refill caches.
	h.L2.Insert(vpn, ppn)
	h.L1.Insert(vpn, ppn)
	for skip := 1; skip <= Levels-1; skip++ {
		key := vpn>>uint(9*(Levels-1-skip))<<8 | uint64(skip)
		if _, cached := h.walkCache[key]; cached {
			continue
		}
		if len(h.wcFIFO) < h.wcCap {
			h.wcFIFO = append(h.wcFIFO, key)
		} else {
			delete(h.walkCache, h.wcFIFO[h.wcNext])
			h.wcFIFO[h.wcNext] = key
			h.wcNext = (h.wcNext + 1) % h.wcCap
		}
		h.walkCache[key] = skip
	}
	return ppn<<PageShift | off, cycles, true
}

// InvalidateRange shoots down the byte range [base, base+length) in both
// TLB levels and drops the paging-structure cache (its cached prefixes
// may point at remapped structures). This is the hardware analogue of the
// guard/translation cache's precise invalidation: map changes that do not
// alter the region set flush only the affected pages.
func (h *Hierarchy) InvalidateRange(base, length uint64) {
	if length == 0 {
		return
	}
	vpnLo := base >> PageShift
	vpnHi := (base + length - 1 + PageSize) >> PageShift
	h.L1.InvalidateRange(vpnLo, vpnHi)
	h.L2.InvalidateRange(vpnLo, vpnHi)
	h.walkCache = make(map[uint64]int)
	h.wcFIFO, h.wcNext = h.wcFIFO[:0], 0
}

// DTLBMPKI returns level-1 DTLB misses per 1000 instructions (Figure 2's
// metric) given the retired instruction count.
func (h *Hierarchy) DTLBMPKI(insns uint64) float64 {
	if insns == 0 {
		return 0
	}
	return float64(h.Stats.L1Misses.Get()) * 1000 / float64(insns)
}

// WalksPerKI returns completed pagewalks per 1000 instructions.
func (h *Hierarchy) WalksPerKI(insns uint64) float64 {
	if insns == 0 {
		return 0
	}
	return float64(h.Stats.Walks.Get()) * 1000 / float64(insns)
}

// AvgWalkCycles returns the mean pagewalk latency.
func (h *Hierarchy) AvgWalkCycles() float64 {
	if h.Stats.Walks.Get() == 0 {
		return 0
	}
	return float64(h.Stats.WalkCycles.Get()) / float64(h.Stats.Walks.Get())
}
