package runtime

import (
	"fmt"
	"math/rand"
	"testing"

	"carat/internal/guard"
	"carat/internal/kernel"
)

// Host-time microbenchmarks for the runtime's two paths: what a move costs
// beside a table of a given size (it must not depend on that size), and what
// tracking an escape costs (DESIGN.md "Host cost of a move").
//
//	go test -run '^$' -bench . -benchmem ./internal/runtime/

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// benchMachine is a runtime over mem bytes with one granted region covering
// nearly all of it.
func benchMachine(tb testing.TB, mem uint64) (*kernel.Process, *Runtime, uint64) {
	k := kernel.New(mem)
	p := k.NewProcess()
	rt := New(k.Mem, nil, nil)
	p.Handler = rt
	base, err := p.GrantRegion(mem/2, guard.PermRW)
	must(tb, err)
	return p, rt, base
}

// pageMoveMachine sets up BenchmarkPageMove's page: four small allocations on
// it, a dozen escapes into them, half of those located on the page itself,
// beside n escapes located on other pages and pointing at another allocation.
// It returns the page's base.
func pageMoveMachine(tb testing.TB, n uint64) (*kernel.Process, *Runtime, uint64) {
	p, rt, base := benchMachine(tb, 64<<20)
	bystander := base + 2*kernel.PageSize
	must(tb, rt.TrackAlloc(bystander, kernel.PageSize))
	for i := uint64(0); i < n; i++ {
		rt.TrackEscape(base+16*kernel.PageSize+i*8, bystander+i%512*8)
	}
	page := base + 4*kernel.PageSize
	for i := uint64(0); i < 4; i++ {
		obj := page + i*1024
		must(tb, rt.TrackAlloc(obj, 512))
		for j := uint64(0); j < 3; j++ {
			in, out := obj+j*8, base+8*kernel.PageSize+(i*3+j)*8
			rt.mem.Store64(in, obj+64)
			rt.TrackEscape(in, obj+64)
			rt.mem.Store64(out, obj+128)
			rt.TrackEscape(out, obj+128)
		}
	}
	rt.Flush()
	return p, rt, page
}

// densePageMachine sets up omnetpp_s's shape, where the storm's median move
// sits: 256 16-byte allocations fill one page, each holding a pointer to its
// neighbour (the last to the first), so one move carries 256 allocations and
// patches and re-keys 256 escapes. It returns the page's base.
func densePageMachine(tb testing.TB) (*kernel.Process, *Runtime, uint64) {
	p, rt, base := benchMachine(tb, 64<<20)
	page := base + 4*kernel.PageSize
	const n, size = 256, 16
	for i := uint64(0); i < n; i++ {
		must(tb, rt.TrackAlloc(page+i*size, size))
	}
	for i := uint64(0); i < n; i++ {
		next := page + (i+1)%n*size
		rt.mem.Store64(page+i*size, next)
		rt.TrackEscape(page+i*size, next)
	}
	rt.Flush()
	return p, rt, page
}

// BenchmarkPageMove moves pageMoveMachine's page beside N escapes elsewhere
// — ns/op and allocs/op must be flat in N — and densePageMachine's page.
func BenchmarkPageMove(b *testing.B) {
	for _, n := range []struct {
		name    string
		machine func(testing.TB) (*kernel.Process, *Runtime, uint64)
	}{
		{"1k-escapes-elsewhere", func(tb testing.TB) (*kernel.Process, *Runtime, uint64) { return pageMoveMachine(tb, 1_000) }},
		{"32k-escapes-elsewhere", func(tb testing.TB) (*kernel.Process, *Runtime, uint64) { return pageMoveMachine(tb, 32_000) }},
		{"1M-escapes-elsewhere", func(tb testing.TB) (*kernel.Process, *Runtime, uint64) { return pageMoveMachine(tb, 1_000_000) }},
		{"dense-256-allocs", densePageMachine},
	} {
		b.Run(n.name, func(b *testing.B) {
			p, rt, page := n.machine(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := p.RequestMove(page, 1)
				if err != nil {
					b.Fatal(err)
				}
				page = res.Dst
			}
			b.StopTimer()
			rt.MoveStats = nil
			must(b, rt.Table.CheckInvariants())
		})
	}
}

// BenchmarkWorstCasePage prices choosing what an injected move moves: the
// pick is one descent along the subtree maxima, so ns/op must be flat in
// table size.
func BenchmarkWorstCasePage(b *testing.B) {
	for _, n := range []uint64{1_000, 100_000} {
		b.Run(fmt.Sprintf("%dk-allocs", n/1000), func(b *testing.B) {
			_, rt, base := benchMachine(b, 64<<20)
			for i := uint64(0); i < n; i++ {
				obj := base + i*64
				must(b, rt.TrackAlloc(obj, 48))
				for j := uint64(0); j < i%4; j++ { // 0–3 escapes each
					rt.TrackEscape(base+16<<20+(i*4+j)*40, obj)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := rt.WorstCasePage(); !ok {
					b.Fatal("no page")
				}
			}
		})
	}
}

// BenchmarkTrackEscape prices the tracking hot path, flushes included, per
// tracked event: "sequential" fills an array of pointers slot by slot (the
// memo's best case, page after page of the index), "scattered" stores at
// random over 1 024 pages into 4 096 allocations (every event another bucket
// and likely another target), "free-churn" frees and reallocates an object
// every eight events, so that most flushes drain a handful of events.
func BenchmarkTrackEscape(b *testing.B) {
	const objs, objBytes = 4096, 64
	setup := func(b *testing.B) (*Runtime, uint64, uint64) {
		_, rt, base := benchMachine(b, 64<<20)
		heap := base + 8<<20
		for i := uint64(0); i < objs; i++ {
			must(b, rt.TrackAlloc(heap+i*objBytes, objBytes))
		}
		return rt, base, heap
	}
	b.Run("sequential", func(b *testing.B) {
		rt, base, heap := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.TrackEscape(base+uint64(i)%(1<<20)*8, heap+uint64(i>>8)%objs*objBytes)
		}
		rt.Flush()
	})
	b.Run("scattered", func(b *testing.B) {
		rt, base, heap := setup(b)
		rng := rand.New(rand.NewSource(1))
		locs := make([]uint64, 1<<16)
		for i := range locs {
			locs[i] = base + uint64(rng.Intn(1024*512))*8
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loc := locs[i&(len(locs)-1)]
			rt.TrackEscape(loc, heap+loc>>3%objs*objBytes)
		}
		rt.Flush()
	})
	b.Run("free-churn", func(b *testing.B) {
		rt, base, heap := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			obj := heap + uint64(i>>3)%objs*objBytes
			rt.TrackEscape(base+uint64(i)%(1<<16)*8, obj)
			if i&7 == 7 {
				if rt.TrackFree(obj) != nil || rt.TrackAlloc(obj, objBytes) != nil {
					b.Fatal("free/alloc of a tracked object failed")
				}
			}
		}
		rt.Flush()
	})
}
