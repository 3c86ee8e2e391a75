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
//
// Neither costs a pass over the slots. InvalidateAll (and Reset, which
// readies a recycled cache for its next owner) bumps the cache's
// generation: every slot carries the one it was filled under and a probe
// must match it as it must the epoch, so a flush is O(1) at any size.
// InvalidateRange probes only the slots the range's pages hash to.

// xcachePageShift matches kernel.PageSize (4 KiB); guard cannot import
// kernel (kernel imports guard), so the constant is mirrored here.
const xcachePageShift = 12

// xcacheSlots is the number of direct-mapped entries (1 << xcacheBits).
// 1024 entries cover a 4 MiB working set of guarded pages: at 64 slots
// (256 KiB) mcf_s, xalancbmk_s and freqmine missed on a third to a half of
// their checks; EXPERIMENTS.md has the census by size.
const (
	xcacheBits  = 10
	xcacheSlots = 1 << xcacheBits
)

// xcachePerms are the permissions a VM check asks for, and the only ones
// CheckCached fills: InvalidateRange finds a page's entries by probing the
// slot of each.
var xcachePerms = [...]Perm{PermRead, PermWrite, PermRW}

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
// filled and 0 when dropped (xslotKey is never 0 — bit 0 is always set). A
// filled slot is live only while gen equals its cache's generation.
//
// The first xslotInlSteps path steps pack into the slot itself (idx<<1 |
// left), so the common shallow walk replays without chasing a separate
// steps slice; deeper walks spill the remainder to the cache's side table
// (XCache.more), which keeps every slot free of pointers.
type xslot struct {
	key    uint64 // page<<8 | perm<<1 | 1; 0 when invalid
	epoch  uint64 // RegionSet.Epoch at fill
	gen    uint64 // XCache.gen at fill
	lo     uint64 // first valid byte
	hi     uint64 // first invalid byte
	base   uint64 // modeled cycles excluding mispredicts
	nsteps int32  // count of packed steps in inl
	fast   bool   // pmask/pvals cover every step (all idx < 64, distinct)
	inl    [xslotInlSteps]int32

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

// replay applies slot i's recorded branch path (inline steps, then spilled
// ones) against the live predictor history and returns the walk's cost.
func (c *XCache) replay(i int, e *Evaluator) uint64 {
	s := &c.slots[i]
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
	if c.more == nil {
		return cost
	}
	for _, st := range c.more[i] {
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

// fill populates slot i from a just-recorded walk.
func (c *XCache) fill(i int, key, epoch, lo, hi, base uint64, steps []pathStep) {
	s := &c.slots[i]
	if !c.live(s) {
		c.nlive++
	}
	*s = xslot{key: key, epoch: epoch, gen: c.gen, lo: lo, hi: hi, base: base}
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
		if c.more == nil {
			c.more = make([][]pathStep, xcacheSlots)
		}
		c.more[i] = append(c.more[i][:0], steps[xslotInlSteps:]...)
		n = xslotInlSteps
	} else if c.more != nil {
		c.more[i] = c.more[i][:0]
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
// safe for concurrent use; each VM thread owns one at a time (the VM
// recycles them through Reset). more is its only pointer, and comes first,
// so the collector scans one word of it.
type XCache struct {
	// more is, per slot, a deep walk's steps past the inline ones (made lazily).
	more  [][]pathStep
	slots [xcacheSlots]xslot

	// gen is the generation a slot must carry to be live; nlive counts the
	// live slots, so a flush knows how many it drops without visiting them.
	gen   uint64
	nlive uint64

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
	return int(h >> (64 - xcacheBits))
}

// live reports whether s holds an entry of the current generation (its
// epoch may still be stale: that is the probe's business, not a flush's).
func (c *XCache) live(s *xslot) bool { return s.key != 0 && s.gen == c.gen }

// InvalidateAll drops every entry. Used when the region set itself changes
// (search paths shift globally, so no entry can be trusted).
func (c *XCache) InvalidateAll() {
	if c.nlive == 0 {
		return
	}
	c.Invalidations += c.nlive
	c.nlive = 0
	c.gen++
}

// Reset readies the cache for a new owner: no entry survives (whatever
// region set or epoch it was filled under) and the counters read zero.
func (c *XCache) Reset() {
	c.gen++
	c.nlive, c.Hits, c.Misses, c.Invalidations = 0, 0, 0, 0
}

// InvalidateRange drops entries whose page overlaps [base, base+length).
// Used for map changes that do not touch the region set (allocation-
// granularity moves, swap in/out), where only the affected pages go stale.
// A range of up to a quarter of the cache's pages probes each page's slot
// per permission; a wider one scans every slot.
func (c *XCache) InvalidateRange(base, length uint64) {
	if length == 0 || c.nlive == 0 {
		return
	}
	first := base >> xcachePageShift
	last := (base + length - 1) >> xcachePageShift
	if last-first < xcacheSlots/4 {
		for page := first; page <= last; page++ {
			for _, p := range xcachePerms {
				if s := &c.slots[xslotIndex(page, p)]; s.key == xslotKey(page, p) && s.gen == c.gen {
					c.drop(s)
				}
			}
		}
		return
	}
	for i := range c.slots {
		s := &c.slots[i]
		if page := s.key >> 8; c.live(s) && page >= first && page <= last {
			c.drop(s)
		}
	}
}

// drop invalidates live slot s.
func (c *XCache) drop(s *xslot) {
	s.key = 0
	c.nlive--
	c.Invalidations++
}

// ValidPages returns the page base addresses currently cached, for tests
// asserting invalidation precision.
func (c *XCache) ValidPages() []uint64 {
	var pages []uint64
	for i := range c.slots {
		if s := &c.slots[i]; c.live(s) {
			pages = append(pages, (s.key>>8)<<xcachePageShift)
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
// physical bounds by construction, and any change to the set (a grant, a
// protection change, a move) bumps the epoch every entry is stamped with.
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
	i := xslotIndex(page, p)
	s := &c.slots[i]
	// One fused compare covers validity, page, perm, epoch and generation.
	if ((s.key^xslotKey(page, p))|(s.epoch^e.Set.Epoch)|(s.gen^c.gen)) == 0 &&
		addr >= s.lo && addr+size <= s.hi && size <= s.hi-s.lo {
		c.Hits++
		e.Checks++
		if s.fast && e.lpBits&s.pmask == s.pvals {
			e.Cycles += s.base // path matches history: zero mispredicts
		} else {
			e.Cycles += c.replay(i, e)
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
	i := xslotIndex(page, p)
	s := &c.slots[i]
	if ((s.key^xslotKey(page, p))|(s.epoch^e.Set.Epoch)|(s.gen^c.gen)) == 0 &&
		addr >= s.lo && addr+size <= s.hi && size <= s.hi-s.lo {
		c.Hits++
		e.Checks++
		if s.fast && e.lpBits&s.pmask == s.pvals {
			e.Cycles += s.base
		} else {
			e.Cycles += c.replay(i, e)
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
	if p != PermRead && p != PermWrite && p != PermRW {
		return true // not in xcachePerms: InvalidateRange could not find it
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
	c.fill(i, xslotKey(page, p), e.Set.Epoch, lo, hi, walkCost-uint64(e.recMisp)*costMispredict, e.recSteps)
	return true
}
