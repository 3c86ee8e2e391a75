package vm

import "testing"

// BenchmarkHeapRebase prices the VM's share of a one-page move: rebasing the
// allocator's metadata when the heap holds 60 000 live blocks and the page
// eight of them (512-byte blocks), or 256 (16-byte blocks, omnetpp_s's
// page). A whole page re-points one slot, so the two must be close.
//
//	go test -run '^$' -bench HeapRebase -benchmem ./internal/vm/
func BenchmarkHeapRebase(b *testing.B) {
	const base, page = 0x100000, 0x1000
	for _, leg := range []struct {
		name string
		size uint64
	}{{"8-blocks-a-page", 512}, {"256-blocks-a-page", 16}} {
		b.Run(leg.name, func(b *testing.B) {
			h := newHeap(base, 64<<20)
			for i := 0; i < 60_000; i++ {
				if h.alloc(leg.size) == 0 {
					b.Fatal("heap exhausted")
				}
			}
			src, dst := uint64(base+16*page), uint64(0x8000000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.rebase(src, dst, page)
				src, dst = dst, src
			}
		})
	}
}
