package kernel

import (
	"math/rand"
	"testing"

	"carat/internal/guard"
)

// Host-time microbenchmarks for the page-provisioning data plane: the
// per-layer rows for `kernel` in the perf ledger (see DESIGN.md "Physical
// memory data plane & page provisioning").
//
//	go test -run '^$' -bench . -benchmem ./internal/kernel/

var benchSizes = []struct {
	name  string
	bytes uint64
}{{"4M", 4 << 20}, {"64M", 64 << 20}}

// A scrub costs what was written, not what is granted, so the scrubbing
// benchmarks run both sides of that: "clean" (nobody wrote the range since
// it was last cleared: the map is all the scrub reads) and "dirty" (one
// Store64 into every page first: the scrub clears all of it, the cost
// before there was a map).
var benchLegs = []struct {
	name  string
	dirty bool
}{{"clean", false}, {"dirty", true}}

// dirtyEveryPage stores one word into each page of [base, base+n).
func dirtyEveryPage(m *PhysMem, base, n uint64) {
	for a := base; a < base+n; a += PageSize {
		m.Store64(a, 1)
	}
}

func BenchmarkPhysMemZero(b *testing.B) {
	for _, sz := range benchSizes {
		for _, leg := range benchLegs {
			b.Run(sz.name+"/"+leg.name, func(b *testing.B) {
				m := NewPhysMem(sz.bytes + PageSize)
				// Fault the range in and leave it clean.
				dirtyEveryPage(m, PageSize, sz.bytes)
				if err := m.Zero(PageSize, sz.bytes); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(sz.bytes))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if leg.dirty {
						b.StopTimer()
						dirtyEveryPage(m, PageSize, sz.bytes)
						b.StartTimer()
					}
					if err := m.Zero(PageSize, sz.bytes); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkPhysMemMove(b *testing.B) {
	b.Run("1M", func(b *testing.B) {
		const n = 1 << 20
		m := NewPhysMem(2*n + PageSize)
		src, dst := uint64(PageSize), uint64(PageSize+n)
		dirtyEveryPage(m, src, n)
		b.SetBytes(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Move(dst, src, n); err != nil {
				b.Fatal(err)
			}
			src, dst = dst, src
		}
	})
}

// BenchmarkStore64 is the store path the dirty map rides on: the data store
// plus the mark. Sequential walks a 4 MB capsule a word at a time (512
// stores per mark byte); page-strided touches a new page, and so a new mark
// byte, with every store; scattered rewrites words at seeded random places
// in the capsule, as the move protocol's escape patching does.
func BenchmarkStore64(b *testing.B) {
	for _, leg := range []struct {
		name         string
		span, stride uint64
	}{{"sequential", 4 << 20, 8}, {"page-strided", 64 << 20, PageSize}} {
		b.Run(leg.name, func(b *testing.B) {
			m := NewPhysMem(leg.span + PageSize)
			dirtyEveryPage(m, PageSize, leg.span)
			b.ResetTimer()
			addr := uint64(PageSize)
			for i := 0; i < b.N; i++ {
				m.Store64(addr, uint64(i))
				if addr += leg.stride; addr >= PageSize+leg.span {
					addr = PageSize
				}
			}
		})
	}
	b.Run("scattered", func(b *testing.B) {
		const span = 4 << 20
		m := NewPhysMem(span + PageSize)
		dirtyEveryPage(m, PageSize, span)
		rng := rand.New(rand.NewSource(19))
		locs := make([]uint32, 1<<16)
		for i := range locs {
			locs[i] = PageSize + uint32(rng.Intn(span/8))*8
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loc := uint64(locs[i%len(locs)])
			m.Store64(loc, m.Load64(loc)+1)
		}
	})
}

// BenchmarkGrantRelease is one capsule (4M) or default heap (64M) granted
// and retired on a 256 MB machine: allocator scan + scrub, then the same
// minus the scrub. The dirty leg writes every page of the region between its
// grant and its release, off the clock.
func BenchmarkGrantRelease(b *testing.B) {
	for _, sz := range benchSizes {
		for _, leg := range benchLegs {
			b.Run(sz.name+"/"+leg.name, func(b *testing.B) {
				k := New(256 << 20)
				// Fault the whole machine in first, with writes (a Zero of
				// never-written memory touches nothing): next-fit walks every
				// grant onto new frames, and the host OS's first-touch page
				// faults would otherwise be most of a 4M op.
				dirtyEveryPage(k.Mem, PageSize, k.Mem.Size()-PageSize)
				if !leg.dirty {
					if err := k.Mem.Zero(PageSize, k.Mem.Size()-PageSize); err != nil {
						b.Fatal(err)
					}
				}
				p := k.NewProcess()
				b.SetBytes(int64(sz.bytes))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					base, err := p.GrantRegion(sz.bytes, guard.PermRW)
					if err != nil {
						b.Fatal(err)
					}
					if leg.dirty {
						b.StopTimer()
						dirtyEveryPage(k.Mem, base, sz.bytes)
						b.StartTimer()
					}
					if err := p.ReleaseRegion(base, sz.bytes); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAllocFragmented allocates and frees a 64-page run on a 256 MB
// machine whose first half is shattered into alternating used/free pages:
// every allocation scans past 16 384 one-page holes, the wrap-around scan
// the defragmentation experiments provoke.
func BenchmarkAllocFragmented(b *testing.B) {
	a := NewPageAllocator(65536)
	base, err := a.Alloc(32768)
	if err != nil {
		b.Fatal(err)
	}
	for pg := uint64(0); pg < 32768; pg += 2 {
		if err := a.Free(base+pg*PageSize, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.scanPos = 1
		addr, err := a.Alloc(64)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Free(addr, 64); err != nil {
			b.Fatal(err)
		}
	}
}
