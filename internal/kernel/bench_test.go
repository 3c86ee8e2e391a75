package kernel

import (
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

func BenchmarkPhysMemZero(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			m := NewPhysMem(sz.bytes + PageSize)
			b.SetBytes(int64(sz.bytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Zero(PageSize, sz.bytes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPhysMemMove(b *testing.B) {
	b.Run("1M", func(b *testing.B) {
		const n = 1 << 20
		m := NewPhysMem(2*n + PageSize)
		src, dst := uint64(PageSize), uint64(PageSize+n)
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

// BenchmarkGrantRelease is one capsule (4M) or default heap (64M) granted
// and retired on a 256 MB machine: allocator scan + owner stores + scrub,
// then the same minus the scrub.
func BenchmarkGrantRelease(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			k := New(256 << 20)
			// Fault the whole machine in first: next-fit walks every grant
			// onto new frames, and the host OS's first-touch page faults
			// would otherwise be most of a 4M op.
			if err := k.Mem.Zero(PageSize, k.Mem.Size()-PageSize); err != nil {
				b.Fatal(err)
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
				if err := p.ReleaseRegion(base, sz.bytes); err != nil {
					b.Fatal(err)
				}
			}
		})
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
