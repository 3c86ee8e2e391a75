package runtime

import (
	"slices"
	"testing"

	"carat/internal/guard"
	"carat/internal/kernel"
)

// modelTable is the escape map the way the table kept it before the reverse
// index was bucketed by page and allocations counted their own escapes: one
// flat location→allocation map, and every question answered by scanning it —
// RebaseEscapeLocs walks every escape of the process to find those in the
// range, an allocation's escape count is a census. FuzzAllocationTable holds
// the indexed table to it.
type modelTable struct {
	allocs []*modelAlloc
	esc    map[uint64]*modelAlloc
}

type modelAlloc struct{ base, length uint64 }

func (m *modelTable) covering(addr uint64) *modelAlloc {
	for _, a := range m.allocs {
		if addr >= a.base && addr < a.base+a.length {
			return a
		}
	}
	return nil
}

func (m *modelTable) based(base uint64) *modelAlloc {
	if a := m.covering(base); a != nil && a.base == base {
		return a
	}
	return nil
}

func (m *modelTable) overlaps(base, length uint64, except *modelAlloc) bool {
	for _, a := range m.allocs {
		if a != except && base < a.base+a.length && a.base < base+length {
			return true
		}
	}
	return false
}

func (m *modelTable) remove(a *modelAlloc) {
	for loc, t := range m.esc {
		if t == a {
			delete(m.esc, loc)
		}
	}
	m.allocs = slices.DeleteFunc(m.allocs, func(x *modelAlloc) bool { return x == a })
}

func (m *modelTable) setEscape(loc uint64, a *modelAlloc) {
	delete(m.esc, loc)
	if a != nil {
		m.esc[loc] = a
	}
}

func (m *modelTable) rebaseEscapeLocs(lo, hi, newLo uint64) int {
	type moved struct {
		loc uint64
		a   *modelAlloc
	}
	var ms []moved
	for loc, a := range m.esc {
		if loc >= lo && loc < hi {
			ms = append(ms, moved{loc, a})
		}
	}
	for _, x := range ms {
		delete(m.esc, x.loc)
	}
	for _, x := range ms {
		m.esc[x.loc-lo+newLo] = x.a
	}
	return len(ms)
}

func (m *modelTable) locsOf(a *modelAlloc) []uint64 {
	var out []uint64
	for loc, t := range m.esc {
		if t == a {
			out = append(out, loc)
		}
	}
	slices.Sort(out)
	return out
}

// worstCasePage is WorstCasePage's rule spelled out: most escapes, lowest
// base among equals.
func (m *modelTable) worstCasePage() (uint64, bool) {
	var best *modelAlloc
	bestN := -1
	for _, a := range m.allocs {
		n := len(m.locsOf(a))
		if n > bestN || (n == bestN && a.base < best.base) {
			best, bestN = a, n
		}
	}
	if best == nil {
		return 0, false
	}
	return alignDown(best.base), true
}

// The fuzzed address space: 48 allocation slots of 0x100 bytes, and escape
// locations anywhere — any alignment — in eight pages, with four more pages
// above them for ranges to be moved to.
const (
	fzAllocLo  = 0x10000
	fzSlot     = 0x100
	fzSlots    = 48
	fzLocLo    = 0x40000
	fzLocSpan  = 8 * kernel.PageSize
	fzDestSpan = 12 * kernel.PageSize
)

const (
	fzInsert = iota
	fzRemove
	fzAddEscape
	fzRemoveEscape
	fzRelink
	fzRebase
	fzRebaseLocs
	fzOps
)

// tableOps packs the fuzz input: seven bytes an op — the op, two for an
// escape location, then c, d, e, f, which each op reads its own way (see the
// decoder in FuzzAllocationTable).
func tableOps(ops ...[7]byte) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, op[:]...)
	}
	return out
}

// FuzzAllocationTable drives the table and the map-scan model with one
// sequence of Insert/Remove/AddEscape/RemoveEscape/relinkEscape/Rebase/
// RebaseEscapeLocs and requires, after every step: the same allocations, the
// same escape set and count per allocation, the same EscapeTarget for every
// location either side knows, the same return values, the same WorstCasePage
// pick, RebaseEscapeLocs examining nothing outside the pages its range
// touches, and CheckInvariants.
func FuzzAllocationTable(f *testing.F) {
	// Three allocations with 3, 2 and 1 escapes, located on three pages at
	// odd alignments (0x40ffd straddles a page edge).
	setup := [][7]byte{
		{fzInsert, 0, 0xff}, {fzInsert, 2, 0x40}, {fzInsert, 5, 0x80},
		{fzAddEscape, 0x00, 0x08, 0, 0x10}, {fzAddEscape, 0x0f, 0xfd, 0, 0x20}, {fzAddEscape, 0x2a, 0xb0, 0, 0},
		{fzAddEscape, 0x10, 0x00, 2, 0}, {fzAddEscape, 0x10, 0x03, 2, 1},
		{fzAddEscape, 0x2a, 0xa8, 5, 0x7f},
	}
	with := func(ops ...[7]byte) []byte { return tableOps(append(slices.Clone(setup), ops...)...) }
	for _, ops := range [][][7]byte{
		{{fzRebaseLocs, 0x10, 0x00, 0x10, 0x00, 0x90, 0x00}}, // one whole page, aligned, to an empty one
		{{fzRebaseLocs, 0x0f, 0xfd, 0x00, 0x08, 0x80, 0x05}}, // 8 bytes from the middle of a word across a page edge
		{{fzRebaseLocs, 0x0f, 0x00, 0x1c, 0x93, 0x93, 0x33}}, // unaligned, three pages, unaligned destination
		{{fzRebaseLocs, 0x50, 0x00, 0x20, 0x00, 0xa0, 0x00}}, // zero hits
		{{fzRebaseLocs, 0x10, 0x00, 0x10, 0x00, 0x2a, 0xa8}}, // onto a populated location
		{{fzRebaseLocs, 0x10, 0x00, 0x00, 0x03, 0x10, 0x03}}, // 3 bytes, onto the neighbour just past the range
		{{fzRebaseLocs, 0x00, 0x00, 0x40, 0x00, 0x80, 0x00}}, // more pages than the index has buckets: walks them
		{{fzRebaseLocs, 0x00, 0x08, 0x10, 0x00, 0x00, 0x10}}, // overlaps its own destination
		{{fzRemove, 0}, {fzRemoveEscape, 0x10, 0x03}},        // leaves a tie for most escapes
		{{fzRelink, 0x10, 0x00, 5}, {fzRelink, 0x33, 0x31, 2}, {fzRebase, 0, 0, 2, 9}},
		{{fzAddEscape, 0x10, 0x00, 40, 0}, {fzAddEscape, 0x10, 0x03, 5, 1}}, // retarget: to nothing, to another
	} {
		f.Add(with(ops...))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		rt := New(kernel.NewPhysMem(kernel.PageSize), nil, nil)
		tb := rt.Table
		m := &modelTable{esc: map[uint64]*modelAlloc{}}
		live := map[*modelAlloc]*Allocation{}
		pick := func(b byte) *modelAlloc {
			if len(m.allocs) == 0 {
				return nil
			}
			return m.allocs[int(b)%len(m.allocs)]
		}
		for step := 0; len(in) >= 7; step, in = step+1, in[7:] {
			a, b, c, d := in[1], in[2], in[3], in[4]
			loc := fzLocLo + (uint64(a)<<8|uint64(b))%fzLocSpan
			switch in[0] % fzOps {
			case fzInsert:
				base, length := fzAllocLo+uint64(a%fzSlots)*fzSlot, uint64(b)+1
				al, err := tb.Insert(base, length, false)
				if want := m.overlaps(base, length, nil); (err != nil) != want {
					t.Fatalf("step %d: Insert(%#x,%#x) = %v, model overlap %v", step, base, length, err, want)
				}
				if err == nil {
					ma := &modelAlloc{base, length}
					m.allocs = append(m.allocs, ma)
					live[ma] = al
				}
			case fzRemove:
				base := fzAllocLo + uint64(a%fzSlots)*fzSlot
				ma := m.based(base)
				if got := tb.Remove(base); got != live[ma] {
					t.Fatalf("step %d: Remove(%#x) = %v, model %v", step, base, got, ma)
				}
				if ma != nil {
					m.remove(ma)
					delete(live, ma)
				}
			case fzAddEscape:
				target := fzAllocLo + uint64(c%fzSlots)*fzSlot + uint64(d)
				ma := m.covering(target)
				m.setEscape(loc, ma)
				if got := tb.AddEscape(loc, target); got != (ma != nil) {
					t.Fatalf("step %d: AddEscape(%#x,%#x) = %v, model %v", step, loc, target, got, ma != nil)
				}
			case fzRemoveEscape:
				m.setEscape(loc, nil)
				tb.RemoveEscape(loc)
			case fzRelink:
				if ma := pick(c); ma != nil {
					m.setEscape(loc, ma)
					tb.relinkEscape(loc, live[ma])
				}
			case fzRebase:
				ma, base := pick(c), fzAllocLo+uint64(d%fzSlots)*fzSlot
				if ma == nil || m.overlaps(base, ma.length, ma) {
					continue
				}
				ma.base = base
				tb.Rebase(live[ma], base)
			case fzRebaseLocs:
				lo, hi := loc, loc+(uint64(c)<<8|uint64(d))%(4*kernel.PageSize+1)
				newLo := fzLocLo + (uint64(in[5])<<8|uint64(in[6]))%fzDestSpan
				onPages := 0
				for l := range m.esc {
					if pageOf(l) >= pageOf(lo) && lo < hi && pageOf(l) <= pageOf(hi-1) {
						onPages++
					}
				}
				want := m.rebaseEscapeLocs(lo, hi, newLo)
				moved, visited := tb.RebaseEscapeLocs(lo, hi, newLo)
				if moved != want {
					t.Fatalf("step %d: RebaseEscapeLocs(%#x,%#x,%#x) moved %d, model %d", step, lo, hi, newLo, moved, want)
				}
				if visited != onPages {
					t.Fatalf("step %d: RebaseEscapeLocs(%#x,%#x,%#x) examined %d entries, the pages of the range hold %d",
						step, lo, hi, newLo, visited, onPages)
				}
			}

			if err := tb.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if tb.Len() != len(m.allocs) || tb.EscapeCount() != len(m.esc) {
				t.Fatalf("step %d: %d allocations / %d escapes, model %d / %d",
					step, tb.Len(), tb.EscapeCount(), len(m.allocs), len(m.esc))
			}
			for _, ma := range m.allocs {
				al := live[ma]
				if tb.Covering(ma.base) != al || al.Base != ma.base {
					t.Fatalf("step %d: allocation %#x not where the model has it", step, ma.base)
				}
				got, want := tb.EscapeLocsOf(al), m.locsOf(ma)
				slices.Sort(got)
				if !slices.Equal(got, want) || al.EscapeCount() != len(want) {
					t.Fatalf("step %d: allocation %#x escapes %#x (count %d), model %#x",
						step, ma.base, got, al.EscapeCount(), want)
				}
			}
			for l, ma := range m.esc {
				if got, ok := tb.EscapeTarget(l); !ok || got != live[ma] {
					t.Fatalf("step %d: EscapeTarget(%#x) = %v, %v; model %#x", step, l, got, ok, ma.base)
				}
			}
			if got, ok := tb.EscapeTarget(loc); ok != (m.esc[loc] != nil) {
				t.Fatalf("step %d: EscapeTarget(%#x) = %v, %v; model %v", step, loc, got, ok, m.esc[loc])
			}
			gotPage, gotOK := rt.WorstCasePage()
			wantPage, wantOK := m.worstCasePage()
			if gotPage != wantPage || gotOK != wantOK {
				t.Fatalf("step %d: WorstCasePage = %#x, %v; model %#x, %v", step, gotPage, gotOK, wantPage, wantOK)
			}
		}
	})
}

// TestPageMoveVisitsOnlyItsPage is the counter's reason to exist, pinned: a
// one-page move in a table holding 100 000 escapes on other pages examines
// none of them, and /metrics says so as rebase_visited == rebase_moved.
func TestPageMoveVisitsOnlyItsPage(t *testing.T) {
	k, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(64*kernel.PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	// One big allocation everything points into, on the last page; 100 000
	// escapes located on pages 8…57 (and so spread over every shard).
	target := base + 63*kernel.PageSize
	must(t, rt.TrackAlloc(target, 64))
	for i := uint64(0); i < 100_000; i++ {
		rt.Table.AddEscape(base+8*kernel.PageSize+i*2, target)
	}
	// The page to move: one allocation holding three pointers, one of them
	// unaligned, beside an unrelated escape located on the same page.
	victim := base + 2*kernel.PageSize
	must(t, rt.TrackAlloc(victim, 256))
	for _, off := range []uint64{0, 8, 21} {
		k.Mem.Store64(victim+off, target)
		rt.TrackEscape(victim+off, target)
	}
	rt.Flush()
	if _, err := p.RequestMove(victim, 1); err != nil {
		t.Fatal(err)
	}
	visited, moved := rt.Stats.RebaseVisited.Get(), rt.Stats.RebaseMoved.Get()
	if visited != 3 || moved != 3 {
		t.Errorf("one-page move beside 100 000 escapes: examined %d index entries, moved %d; want 3 and 3", visited, moved)
	}
	if err := rt.Table.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCheckInvariantsSeesIndexDamage breaks, one at a time, the three things
// the page-bucketed index adds to the invariants, and expects each reported.
func TestCheckInvariantsSeesIndexDamage(t *testing.T) {
	build := func() (*AllocationTable, *Allocation) {
		tb := NewAllocationTable()
		a, err := tb.Insert(0x10000, 64, false)
		must(t, err)
		tb.AddEscape(0x40008, 0x10000)
		tb.AddEscape(0x41010, 0x10008)
		must(t, tb.CheckInvariants())
		return tb, a
	}
	for name, damage := range map[string]func(*AllocationTable, *Allocation){
		"count drifts from the sets": func(_ *AllocationTable, a *Allocation) { a.nEsc.Add(1) },
		"empty bucket survives": func(tb *AllocationTable, _ *Allocation) {
			tb.shards[shardOf(0x50000)].pages[pageOf(0x50000)] = map[uint64]*Allocation{} // page 0x40's shard
		},
		"entry in another page's bucket": func(tb *AllocationTable, a *Allocation) {
			tb.shards[shardOf(0x40008)].pages[pageOf(0x40008)][0x50018] = a // same shard, wrong page
		},
	} {
		tb, a := build()
		damage(tb, a)
		if err := tb.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants reports nothing", name)
		} else {
			t.Log(name+":", err)
		}
	}
}
