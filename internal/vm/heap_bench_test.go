package vm

import "testing"

// BenchmarkHeapRebase prices the VM's share of a one-page move: rebasing the
// allocator's block table when the heap holds 60 000 live blocks and the
// page eight of them.
//
//	go test -run '^$' -bench HeapRebase -benchmem ./internal/vm/
func BenchmarkHeapRebase(b *testing.B) {
	const base, page = 0x100000, 0x1000
	h := newHeap(base, 64<<20)
	for i := 0; i < 60_000; i++ {
		if h.alloc(512) == 0 {
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
}
