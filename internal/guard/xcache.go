package guard

// The translation/guard cache ("xcache"). CARAT's argument is that software
// translation approaches hardware speed by exploiting locality; the xcache
// models the software analogue of an inline TLB fast path: a small
// direct-mapped cache in front of the guard evaluator keyed by (page, perm).
// A hit replays the *recorded* evaluator outcome — including the exact
// modeled cycle cost and the branch-predictor state transitions the full
// walk would have performed — so the modeled cycle accounting is
// byte-identical with the cache on or off. The cache is a host-speed
// optimization only: it changes how fast the interpreter runs on the host,
// never what the model observes.
//
// Validity has two layers:
//
//   - every entry is stamped with the RegionSet epoch at fill time and a
//     hit requires an exact epoch match, so any region-set mutation
//     (grant/release/protect, Fig-8 page moves) implicitly invalidates the
//     whole cache even if an explicit flush is missed;
//   - explicit invalidation (InvalidateAll on region-set changes,
//     InvalidateRange for map changes that leave the region set alone —
//     allocation-granularity moves, swap in/out) clears entries eagerly and
//     feeds the carat.vm.xcache.invalidations counter.

// xcachePageShift matches kernel.PageSize (4 KiB); guard cannot import
// kernel (kernel imports guard), so the constant is mirrored here.
const xcachePageShift = 12

// xcacheSlots is the number of direct-mapped entries. 64 entries cover a
// 256 KiB working set of guarded pages, far beyond the loop footprints the
// Fig-3 workloads touch between map changes.
const xcacheSlots = 64

// pathStep records one branch direction of a search walk: the predictor
// slot it consulted (depth for binary search, node id for the if-tree) and
// the direction taken.
type pathStep struct {
	idx  int32
	left bool
}

// xslot is one direct-mapped cache entry. It caches a *successful* check of
// the interval [lo, hi) — the intersection of the matched region with the
// page — together with the base cost of the walk (all cycles except
// mispredict penalties) and the walk's branch path for replay.
//
// Page, permission, and validity pack into one key word so the hot probes
// match an entry with a single compare: key is xslotKey(page, perm) when
// valid and 0 when empty (xslotKey is never 0 — bit 0 is always set).
//
// The first xslotInlSteps path steps pack into the slot itself (idx<<1 |
// left), so the common shallow walk replays without chasing a separate
// steps slice; deeper walks spill the remainder to more.
type xslot struct {
	key    uint64 // page<<8 | perm<<1 | 1; 0 when invalid
	epoch  uint64 // RegionSet.Epoch at fill
	lo     uint64 // first valid byte
	hi     uint64 // first invalid byte
	base   uint64 // modeled cycles excluding mispredicts
	nsteps int32  // count of packed steps in inl
	fast   bool   // pmask/pvals cover every step (all idx < 64, distinct)
	inl    [xslotInlSteps]int32
	more   []pathStep // path steps beyond inl (deep walks only)

	// pmask/pvals summarize the recorded path as a bitset over predictor
	// slots: when fast, e.lpBits&pmask == pvals means every recorded step
	// matches live history — the walk replays at exactly base cost with no
	// predictor updates, so the hit path can skip the replay loop.
	pmask uint64
	pvals uint64
}

// xslotInlSteps is how many path steps fit inline in a slot: binary-search
// walks over realistic region counts and shallow if-tree walks fit; only
// deep trees spill.
const xslotInlSteps = 6

// replay applies the recorded branch path against the evaluator's live
// predictor history and returns the walk's modeled cost.
func (s *xslot) replay(e *Evaluator) uint64 {
	cost := s.base
	lp := e.lastPath
	for i := 0; i < int(s.nsteps); i++ {
		w := s.inl[i]
		idx, left := w>>1, w&1 != 0
		if lp[idx] != left {
			cost += costMispredict
			lp[idx] = left
			if idx < 64 {
				e.lpBits ^= 1 << idx
			}
		}
	}
	for _, st := range s.more {
		if lp[st.idx] != st.left {
			cost += costMispredict
			lp[st.idx] = st.left
			if st.idx < 64 {
				e.lpBits ^= 1 << st.idx
			}
		}
	}
	return cost
}

// fill populates a slot from a just-recorded walk.
func (s *xslot) fill(key, epoch, lo, hi, base uint64, steps []pathStep) {
	*s = xslot{key: key, epoch: epoch, lo: lo, hi: hi, base: base}
	fast := true
	for _, st := range steps {
		if st.idx >= 64 || s.pmask&(1<<st.idx) != 0 {
			fast = false // deep tree or revisited slot: mask can't summarize
			break
		}
		s.pmask |= 1 << st.idx
		if st.left {
			s.pvals |= 1 << st.idx
		}
	}
	s.fast = fast
	if !fast {
		s.pmask, s.pvals = 0, 0
	}
	n := len(steps)
	if n > xslotInlSteps {
		s.more = append([]pathStep(nil), steps[xslotInlSteps:]...)
		n = xslotInlSteps
	}
	for i := 0; i < n; i++ {
		w := steps[i].idx << 1
		if steps[i].left {
			w |= 1
		}
		s.inl[i] = w
	}
	s.nsteps = int32(n)
}

// xslotKey packs a page number and permission into the slot-match word.
// Pages are physical-address>>12, far below 2^56, so the shift is lossless.
func xslotKey(page uint64, p Perm) uint64 {
	return page<<8 | uint64(p)<<1 | 1
}

// XCache is a per-thread direct-mapped guard/translation cache. It is not
// safe for concurrent use; each VM thread owns one.
type XCache struct {
	slots [xcacheSlots]xslot

	// Hits, Misses and Invalidations count cache events. Invalidations
	// counts entries actually dropped, not flush calls.
	Hits          uint64
	Misses        uint64
	Invalidations uint64
}

// NewXCache returns an empty cache.
func NewXCache() *XCache { return &XCache{} }

func xslotIndex(page uint64, p Perm) int {
	h := (page ^ uint64(p)<<56) * 0x9E3779B97F4A7C15
	return int(h >> 58) // top 6 bits: 64 slots
}

// InvalidateAll drops every entry. Used when the region set itself changes
// (search paths shift globally, so no entry can be trusted).
func (c *XCache) InvalidateAll() {
	for i := range c.slots {
		if c.slots[i].key != 0 {
			c.slots[i].key = 0
			c.Invalidations++
		}
	}
}

// InvalidateRange drops entries whose page overlaps [base, base+length).
// Used for map changes that do not touch the region set (allocation-
// granularity moves, swap in/out), where only the affected pages go stale.
func (c *XCache) InvalidateRange(base, length uint64) {
	if length == 0 {
		return
	}
	first := base >> xcachePageShift
	last := (base + length - 1) >> xcachePageShift
	for i := range c.slots {
		s := &c.slots[i]
		if page := s.key >> 8; s.key != 0 && page >= first && page <= last {
			s.key = 0
			c.Invalidations++
		}
	}
}

// ValidPages returns the page base addresses currently cached, for tests
// asserting invalidation precision.
func (c *XCache) ValidPages() []uint64 {
	var pages []uint64
	for i := range c.slots {
		if c.slots[i].key != 0 {
			pages = append(pages, (c.slots[i].key>>8)<<xcachePageShift)
		}
	}
	return pages
}

// CheckTranslateCached is the fused guard-check + address-translation fast
// path used by the VM's compiled engine: one epoch-stamped probe that, on
// a hit, both validates the access and proves identity translation safe, so
// the caller can go straight to physical memory without a separate
// translate step. The fusion is sound because a cached hit proves
// [addr, addr+size) lies inside a granted region — granted regions are in
// physical bounds by construction — and a hit is impossible while an
// incremental-move forwarding window could redirect the access:
// OpenForward/FlipForward/CloseForward each bump the epoch (invalidating
// every earlier entry on the stamp), and no entry is ever filled while a
// window is open (CheckCached refuses to cache then).
//
// On a hit it charges exactly the cycles CheckCached would have charged and
// returns (addr, true). On any other outcome it returns (0, false) without
// touching the hit/miss counters: the caller then takes the unfused
// CheckCached + translate path, which counts the miss once.
func (e *Evaluator) CheckTranslateCached(c *XCache, addr, size uint64, p Perm) (uint64, bool) {
	if c == nil {
		return 0, false
	}
	page := addr >> xcachePageShift
	s := &c.slots[xslotIndex(page, p)]
	// One fused compare covers validity, page, perm, and epoch.
	if ((s.key^xslotKey(page, p))|(s.epoch^e.Set.Epoch)) == 0 &&
		addr >= s.lo && addr+size <= s.hi && size <= s.hi-s.lo {
		c.Hits++
		e.Checks++
		if s.fast && e.lpBits&s.pmask == s.pvals {
			e.Cycles += s.base // path matches history: zero mispredicts
		} else {
			e.Cycles += s.replay(e)
		}
		return addr, true
	}
	return 0, false
}

// CheckCached is Check fronted by the xcache. On a hit it charges exactly
// the cycles the full walk would have charged (base cost plus a mispredict
// penalty for every recorded step that diverges from the current branch
// history, updating the history as the real walk would). On a miss it runs
// the full walk in recording mode and fills the entry.
//
// Only successful checks are cached: a fault is a cold path by definition
// and takes the full walk every time.
func (e *Evaluator) CheckCached(c *XCache, addr, size uint64, p Perm) bool {
	if c == nil {
		return e.Check(addr, size, p)
	}
	page := addr >> xcachePageShift
	s := &c.slots[xslotIndex(page, p)]
	if ((s.key^xslotKey(page, p))|(s.epoch^e.Set.Epoch)) == 0 &&
		addr >= s.lo && addr+size <= s.hi && size <= s.hi-s.lo {
		c.Hits++
		e.Checks++
		if s.fast && e.lpBits&s.pmask == s.pvals {
			e.Cycles += s.base
		} else {
			e.Cycles += s.replay(e)
		}
		return true
	}
	c.Misses++

	// Full walk in recording mode.
	e.recOn = true
	e.recSteps = e.recSteps[:0]
	e.recMisp = 0
	before := e.Cycles
	ok := e.Check(addr, size, p)
	e.recOn = false
	if !ok {
		return false
	}
	if e.Set.ForwardActive() {
		// Never cache inside a forwarding window: an entry stamped with the
		// window's epoch would let the fused translate path bypass the
		// forwarding redirect. The window is brief and bumps the epoch again
		// when it closes, so nothing of value is lost.
		return true
	}
	r, found := e.Set.Find(addr)
	if !found {
		return ok // cannot happen for a passing check; be safe
	}
	pageBase := page << xcachePageShift
	lo, hi := r.Base, r.End()
	if lo < pageBase {
		lo = pageBase
	}
	if end := pageBase + (1 << xcachePageShift); hi > end {
		hi = end
	}
	walkCost := e.Cycles - before
	s.fill(xslotKey(page, p), e.Set.Epoch, lo, hi, walkCost-uint64(e.recMisp)*costMispredict, e.recSteps)
	return true
}
