package runtime

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
)

// dedupeByMap is the batch de-dupe as apply did it before it ran in place: a
// fresh map and a fresh order slice per flush. Each location keeps its first
// position and its last value.
func dedupeByMap(events []escapeEvent) []escapeEvent {
	last := make(map[uint64]uint64, len(events))
	var order []uint64
	for _, e := range events {
		if _, seen := last[e.loc]; !seen {
			order = append(order, e.loc)
		}
		last[e.loc] = e.val
	}
	out := make([]escapeEvent, 0, len(order))
	for _, loc := range order {
		out = append(out, escapeEvent{loc, last[loc]})
	}
	return out
}

// TestDedupeMatchesMapAndOrder runs one buffer's scratch table through
// batches of every size — full ones that grow it, then handfuls that reuse a
// table sized for a full one, across a wrap of the flush stamp — and wants
// what the map gave: same locations, same order, same values. The order is
// the order new escapes join their allocations' sets, which a move patches in.
func TestDedupeMatchesMapAndOrder(t *testing.T) {
	_, _, rt := newTestRuntime(t)
	b := rt.NewEscapeBuffer()
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 2, 3, 1024, 5, 1, 700, 2, 1024, 4, 64, 3}
	for round := 0; round < 40; round++ {
		if round == 20 {
			b.stamp = ^uint32(0) - 3 // the next few flushes cross the wrap
		}
		n := sizes[round%len(sizes)]
		b.events = b.events[:0]
		for i := 0; i < n; i++ {
			// A small location space so most events repeat a location; 16-byte
			// strides and a few odd ones so hashes collide and probe.
			loc := 0x40000 + uint64(rng.Intn(n/3+2))*16 + uint64(rng.Intn(2))*5
			b.events = append(b.events, escapeEvent{loc, rng.Uint64()})
		}
		want := dedupeByMap(b.events)
		if got := b.dedupe(); !slices.Equal(got, want) {
			t.Fatalf("round %d (%d events): de-dupe kept %d events %v, map-and-order keeps %d %v",
				round, n, len(got), got, len(want), want)
		}
	}
	if len(b.seen) != 2048 {
		t.Errorf("scratch table has %d slots after full batches, want 2048 (twice the batch)", len(b.seen))
	}
}

// TestRecycledScratchDedupesAsFresh: a runtime's escape buffer takes the
// scratch an earlier runtime's Release handed back, seen table and stamp
// together, and de-dupes batches exactly as a fresh buffer does: the same
// events, in the same order. Read against a fresh stamp, the earlier owner's
// slots would pass for the current flush's and swallow the locations they
// hold.
func TestRecycledScratchDedupesAsFresh(t *testing.T) {
	batch := func(seed int64) []escapeEvent {
		rng := rand.New(rand.NewSource(seed))
		ev := make([]escapeEvent, 600)
		for i := range ev {
			ev[i] = escapeEvent{0x40000 + uint64(rng.Intn(300))*16, rng.Uint64()}
		}
		return ev
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a pool ages its objects at each collection
	_, _, prev := newTestRuntime(t)
	prev.defBuf.events = append(prev.defBuf.events, batch(1)...)
	prev.defBuf.dedupe()
	prev.Release()
	made := ScratchMade()
	_, _, rt := newTestRuntime(t)
	b, fresh := rt.defBuf, &EscapeBuffer{}
	if ScratchMade() != made || len(b.seen) == 0 {
		t.Fatalf("the buffer made its scratch (%d boxes made, %d slots) instead of taking the released one",
			ScratchMade()-made, len(b.seen))
	}
	for seed := int64(1); seed <= 3; seed++ {
		b.events = append(b.events[:0], batch(seed)...)
		fresh.events = append(fresh.events[:0], batch(seed)...)
		if got, want := b.dedupe(), fresh.dedupe(); !slices.Equal(got, want) {
			t.Fatalf("batch %d: the recycled buffer keeps %d events, a fresh one %d", seed, len(got), len(want))
		}
	}
}

// TestSteadyStateFlushDoesNotAllocate: once the buffer and its scratch have
// grown, tracking and flushing full batches allocates nothing (the flush used
// to copy the batch and build a map and a slice each time), and neither does
// the handful-of-events flush TrackFree triggers.
func TestSteadyStateFlushDoesNotAllocate(t *testing.T) {
	_, _, rt := newTestRuntime(t)
	must(t, rt.TrackAlloc(0x10000, 4096))
	batch := func(n int) {
		for i := 0; i < n; i++ {
			rt.TrackEscape(0x40000+uint64(i%600)*8, 0x10000+uint64(i%7)*8)
		}
		rt.Flush()
	}
	batch(DefaultBatchSize) // grow the buffer, the scratch and the escape sets
	if allocs := testing.AllocsPerRun(20, func() { batch(DefaultBatchSize); batch(3) }); allocs != 0 {
		t.Errorf("a full batch and a three-event batch allocate %.1f times, want 0", allocs)
	}
	if got := rt.Table.EscapeCount(); got != 600 {
		t.Errorf("%d escapes live, want 600", got)
	}
}
