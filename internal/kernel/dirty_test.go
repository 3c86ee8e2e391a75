package kernel

import (
	"bytes"
	"fmt"
	"testing"

	"carat/internal/guard"
)

// The page-dirty map's contract is checked three ways: the seeded oracle
// test in provision_test.go, the fuzz target below (both replay ops against
// the byte-loop model and assert invariant D after every one), and the
// grant-level count the kernel publishes from it.

// fuzzRec is one 7-byte op record of FuzzPhysMemDirty's input.
func fuzzRec(op byte, a, b, n uint16) []byte {
	return []byte{op, byte(a >> 8), byte(a), byte(b >> 8), byte(b), byte(n >> 8), byte(n)}
}

func FuzzPhysMemDirty(f *testing.F) {
	const (
		size = 8 * PageSize
		wrap = 0xff00 // words at and above this decode to the top of the address space
	)
	const (
		opZero = iota
		opZeroPages
		opMove
		opMovePages
		opStore64
		opStoreN
		opWriteAt
		ops
	)
	seq := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	// The oracle test's edge cases, as sequences.
	f.Add(seq( // an 8-byte store at page offset 4093 dirties two pages; scrub both
		fuzzRec(opStore64, 2*PageSize-3, 0xffff, 0xffff),
		fuzzRec(opZeroPages, PageSize, 0, 2)))
	f.Add(seq( // a sub-page clear leaves the page dirty; the whole-page one cleans it
		fuzzRec(opWriteAt, PageSize+5, 0x0107, 3*PageSize-1),
		fuzzRec(opZero, PageSize+5, 0, 100),
		fuzzRec(opZero, PageSize, 0, PageSize),
		fuzzRec(opZeroPages, 0, 0, 8)))
	f.Add(seq( // move onto clean pages, then scrub the destination
		fuzzRec(opWriteAt, 3*PageSize-9, 0x0301, 40),
		fuzzRec(opMove, 5*PageSize+1, 3*PageSize-9, 40),
		fuzzRec(opMovePages, 6*PageSize, 5*PageSize, 1),
		fuzzRec(opZeroPages, 6*PageSize, 0, 1)))
	f.Add(seq( // the last byte, address 0, past the end, wrapping, overlapping
		fuzzRec(opStoreN, size-1, 0xa5a5, 0),
		fuzzRec(opZero, size-1, 0, 1),
		fuzzRec(opZero, 0, 0, 8),
		fuzzRec(opZero, size-2, 0, 3),
		fuzzRec(opZero, wrap+3, 0, 16),
		fuzzRec(opZero, 16, 0, wrap+1),
		fuzzRec(opMove, 100, 90, 20),
		fuzzRec(opMove, size, 8, 8),
		fuzzRec(opWriteAt, size-3, 0x0101, 4)))
	for w := uint16(0); w < 4; w++ { // every width, 7 below to 1 above a boundary
		var recs [][]byte
		for off := uint16(0); off < 9; off++ {
			recs = append(recs, fuzzRec(opStoreN, 4*PageSize-7+off, 0x8001, w),
				fuzzRec(opZeroPages, 3*PageSize, 0, 2))
		}
		f.Add(seq(recs...))
	}

	word := func(hi, lo byte) uint64 {
		if w := uint64(hi)<<8 | uint64(lo); w < wrap {
			return w % (size + 16)
		}
		return ^uint64(0) - uint64(lo)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		got, want := NewPhysMem(size), NewPhysMem(size)
		for step := 0; len(in) >= 7; step, in = step+1, in[7:] {
			a, b, n := word(in[1], in[2]), word(in[3], in[4]), word(in[5], in[6])
			// Store values and WriteAt payloads are spun from b; the top and
			// bottom bytes of a store are forced nonzero so a dropped mark on
			// either page shows.
			v := b*0x0101010101010101 | 1
			var op string
			var ge, we error
			switch in[0] % ops {
			case opZero:
				op = fmt.Sprintf("Zero(%#x, %d)", a, n)
				ge, we = got.Zero(a, n), refZero(want, a, n)
			case opZeroPages:
				a, n = a&^(PageSize-1), n%9*PageSize
				op = fmt.Sprintf("Zero(%#x, %d)", a, n)
				ge, we = got.Zero(a, n), refZero(want, a, n)
			case opMove:
				op = fmt.Sprintf("Move(%#x, %#x, %d)", a, b, n)
				ge, we = got.Move(a, b, n), refMove(want, a, b, n)
			case opMovePages:
				a, b, n = a&^(PageSize-1), b&^(PageSize-1), n%5*PageSize
				op = fmt.Sprintf("Move(%#x, %#x, %d)", a, b, n)
				ge, we = got.Move(a, b, n), refMove(want, a, b, n)
			case opStore64:
				if a > size-8 {
					continue // stores do not bounds-check; the VM's guards do
				}
				op = fmt.Sprintf("Store64(%#x)", a)
				v |= 1 << 63
				got.Store64(a, v)
				refStore(want, a, v, 8)
			case opStoreN:
				w := 1 << (n % 4)
				if a > size-uint64(w) {
					continue
				}
				op = fmt.Sprintf("StoreN(%#x, %d)", a, w)
				v |= 1 << (8*w - 1)
				got.StoreN(a, v, w)
				refStore(want, a, v, w)
			case opWriteAt:
				buf := make([]byte, n%(3*PageSize))
				for i := range buf {
					buf[i] = byte(b>>8) + byte(i)*byte(b)
				}
				op = fmt.Sprintf("WriteAt(%#x, %d bytes)", a, len(buf))
				ge, we = got.WriteAt(a, buf), refWriteAt(want, a, buf)
			}
			if !sameErr(ge, we) {
				t.Fatalf("step %d (%s): err %v, reference %v", step, op, ge, we)
			}
			checkAgainstModel(t, got, want, step, op)
		}
	})
}

// TestPagesScrubbedCountsDirtyPagesOnly pins carat.kernel.pages_scrubbed:
// beside page_allocs (pages granted) it counts the granted pages that had
// to be cleared. The machine has room for the region in exactly one place,
// so every grant reuses the frames the previous one released.
func TestPagesScrubbedCountsDirtyPagesOnly(t *testing.T) {
	const pages = 16
	k := New((1 + pages) * PageSize)
	p := k.NewProcess()
	regrant := func(wantScrubbed uint64, why string) uint64 {
		t.Helper()
		before := k.Stats.PagesScrubbed.Get()
		base, err := p.GrantRegion(pages*PageSize, guard.PermRW)
		if err != nil {
			t.Fatal(err)
		}
		if got := k.Stats.PagesScrubbed.Get() - before; got != wantScrubbed {
			t.Errorf("%s: grant scrubbed %d pages, want %d", why, got, wantScrubbed)
		}
		img := make([]byte, pages*PageSize)
		if err := k.Mem.ReadAt(base, img); err != nil {
			t.Fatal(err)
		}
		if !allZero(img) {
			t.Errorf("%s: granted region holds a nonzero byte", why)
		}
		if err := p.ReleaseRegion(base, pages*PageSize); err != nil {
			t.Fatal(err)
		}
		return base
	}
	base := regrant(0, "fresh machine")
	regrant(0, "released and never written")
	dirtied := []uint64{0, 3, 4, 9, 15}
	for _, pg := range dirtied {
		k.Mem.StoreN(base+pg*PageSize+pg, 0xee, 1)
	}
	regrant(uint64(len(dirtied)), "one byte written into each of five pages")
	regrant(0, "the scrub left every page clean")
	k.Mem.Store64(base+2*PageSize-3, ^uint64(0)) // straddles pages 1 and 2
	regrant(2, "one store across a page boundary")
	if got, want := k.Stats.PageAllocs.Get(), uint64(5*pages); got != want {
		t.Errorf("page_allocs = %d, want %d", got, want)
	}
}
