package vm

import (
	"flag"
	goruntime "runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/kernel"
	"carat/internal/passes"
	"carat/internal/runtime"
	"carat/internal/workload"
)

// xcacheGuest touches 64 heap words through loads and stores that
// xcacheModule guards one by one: a small guest whose run fills and hits
// its thread's xcache.
const xcacheGuest = `module "xcguest"
func @malloc(%n: i64) -> ptr
func @main() -> i64 {
entry:
  %p = call ptr @malloc(i64 512)
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %s = phi i64 [0, ^entry], [%s1, ^loop]
  %q = gep i64, %p, %i
  store i64 %i, %q
  %v = load i64, %q
  %s1 = add i64 %s, %v
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 64
  condbr %c, ^loop, ^done
done:
  ret i64 %s1
}`

// xcacheModule is xcacheGuest with a guard in front of every access (no
// hoisting or merging, which would leave the loop one range guard).
func xcacheModule(t *testing.T) *ir.Module {
	m := ir.MustParse(xcacheGuest)
	if err := passes.Build(passes.LevelGuardsOnly).Run(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestLoadAllocatesNoXCache: a guest takes its xcache from the
// pool VM.Release fills, so once warm a load/run/release cycle allocates
// less than one cache's bytes — a cache allocated per load would be the
// whole bound on its own.
func TestLoadAllocatesNoXCache(t *testing.T) {
	p, err := NewProgram(xcacheModule(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Kernel = kernel.New(1 << 24)
	cfg.HeapBytes, cfg.StackBytes = 1<<16, 1<<16
	cycle := func() {
		v, err := LoadProgram(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ret, err := v.Run(); err != nil || ret != 63*64/2 {
			t.Fatalf("guest returned %d, %v", ret, err)
		}
		if hits, _, _ := v.XCacheStats(); hits == 0 {
			t.Fatal("the guest never hit its xcache")
		}
		if err := v.Release(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	const cycles = 100
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	goruntime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles
	t.Logf("%d B per load/run/release cycle (one xcache is %d B)", perCycle, unsafe.Sizeof(guard.XCache{}))
	if perCycle >= uint64(unsafe.Sizeof(guard.XCache{})) {
		t.Errorf("%d B per cycle, at least one xcache's %d B: a load allocated its cache", perCycle, unsafe.Sizeof(guard.XCache{}))
	}
}

// fillGuest mallocs 1 024 48-byte blocks, twelve heap pages of them, and
// stores a pointer to each in a word of its buffer's first two pages: at
// LevelTracking, a page or more of escapes and a full escape batch.
const fillGuest = `module "fill"
func @malloc(%n: i64) -> ptr
func @main() -> i64 {
entry:
  %p = call ptr @malloc(i64 8192)
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %b = call ptr @malloc(i64 48)
  %q = gep i64, %p, %i
  store ptr %b, %q
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 1024
  condbr %c, ^loop, ^done
done:
  ret i64 0
}`

// TestReleaseRecyclesPageBuckets: a guest takes its escape index's page
// buckets and its allocation slab from the stock VM.Release hands back, its
// heap's class pages and its escape buffers' scratch from the pools Release
// fills, so once warm a load, run and release of a guest that mallocs a
// thousand blocks and fills a page with escapes makes none of them, at any
// GOMAXPROCS and under -race. The GC is held off for the counted cycles: a
// pool lets go of what sat idle across two collections.
func TestReleaseRecyclesPageBuckets(t *testing.T) {
	p, err := NewProgram(compile(t, fillGuest, passes.LevelTracking))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Kernel = kernel.New(1 << 24)
	cfg.HeapBytes, cfg.StackBytes = 1<<17, 1<<16
	cycle := func() {
		v, err := LoadProgram(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Run(); err != nil {
			t.Fatal(err)
		}
		if n := v.Runtime().Table.EscapeCount(); n < 1024 {
			t.Fatalf("the guest left %d escapes, want 1024", n)
		}
		if err := v.Release(); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	buckets, chunks := runtime.BucketsMade(), runtime.ChunksMade()
	pages, scratch := classPagesMade.Load(), runtime.ScratchMade()
	for i := 0; i < 10; i++ {
		cycle()
	}
	if n := runtime.BucketsMade() - buckets; n != 0 {
		t.Errorf("10 warm cycles made %d page buckets, want 0", n)
	}
	if n := runtime.ChunksMade() - chunks; n != 0 {
		t.Errorf("10 warm cycles made %d slab chunks, want 0", n)
	}
	if n := classPagesMade.Load() - pages; n != 0 {
		t.Errorf("10 warm cycles made %d heap class pages, want 0", n)
	}
	if n := runtime.ScratchMade() - scratch; n != 0 {
		t.Errorf("10 warm cycles made %d escape scratch boxes, want 0", n)
	}
}

// TestRecycledHeapForgetsPreviousOwner: a guest's heap takes the class table
// an earlier guest's Release handed back, pages and all, and trusts none of
// it: freeing an address only the earlier guest allocated fails, and the
// guest's own malloc cuts a fresh block at its heap's base.
func TestRecycledHeapForgetsPreviousOwner(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a pool ages its objects at each collection
	cfg := DefaultConfig()
	cfg.Kernel = kernel.New(1 << 24)
	cfg.HeapBytes, cfg.StackBytes = 1<<16, 1<<16
	run := func(src string) (*VM, error) {
		v, err := Load(compile(t, src, passes.LevelNone), cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = v.Run()
		return v, err
	}
	a, err := run(`module "a"
func @malloc(%n: i64) -> ptr
func @main() -> i64 {
entry:
  br ^loop
loop:
  %i = phi i64 [0, ^entry], [%i1, ^loop]
  %p = call ptr @malloc(i64 16)
  %i1 = add i64 %i, 1
  %c = icmp slt i64 %i1, 20
  condbr %c, ^loop, ^done
done:
  ret i64 0
}`)
	if err != nil {
		t.Fatal(err)
	}
	if a.heap.brk != a.heap.base+20*16 {
		t.Fatalf("guest A cut %d bytes, want 20 blocks of 16", a.heap.brk-a.heap.base)
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	pages := classPagesMade.Load()
	// B's block is A's first; A's fourth, 48 bytes on, is no block of B's.
	b, err := run(`module "b"
func @malloc(%n: i64) -> ptr
func @free(%p: ptr) -> void
func @main() -> i64 {
entry:
  %p = call ptr @malloc(i64 16)
  %q = gep i64, %p, 6
  call void @free(ptr %q)
  ret i64 0
}`)
	if err == nil || !strings.Contains(err.Error(), "free of unallocated address") {
		t.Errorf("guest B freed a block only guest A allocated: %v", err)
	}
	if n := classPagesMade.Load() - pages; n != 0 {
		t.Errorf("guest B made %d class pages instead of taking guest A's", n)
	}
	if b.heap.brk != b.heap.base+16 || !b.heap.live(b.heap.base) {
		t.Errorf("guest B's malloc cut no fresh block at its base: brk %#x, base %#x", b.heap.brk, b.heap.base)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseRecyclesXCaches: Release hands a run's cache back (the VM
// keeps no reference to one another guest may now own), and a second
// Release is still a no-op.
func TestReleaseRecyclesXCaches(t *testing.T) {
	v, err := Load(xcacheModule(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := v.XCacheStats(); hits == 0 || misses == 0 {
		t.Fatalf("xcache %d hits / %d misses before Release", hits, misses)
	}
	for i := 0; i < 2; i++ {
		if err := v.Release(); err != nil {
			t.Fatal(err)
		}
		if hits, misses, invs := v.XCacheStats(); hits+misses+invs != 0 {
			t.Errorf("Release %d: the VM still reads a cache (%d/%d/%d)", i+1, hits, misses, invs)
		}
	}
}

var censusScale = flag.String("xcache.census", "test", "BenchmarkXCacheCensus kernel scale: test or small")

// BenchmarkXCacheCensus runs each suite kernel at LevelTracking on the
// compiled engine and reports its xcache misses per run and miss share:
// the census behind the cache's slot count (EXPERIMENTS.md). It runs at
// ScaleTest unless asked for the kernels the benchmark's move-storm runs:
//
//	go test -run '^$' -bench XCacheCensus -benchtime 1x ./internal/vm/ -args -xcache.census=small
func BenchmarkXCacheCensus(b *testing.B) {
	scale := workload.ScaleTest
	if *censusScale == "small" {
		scale = workload.ScaleSmall
	}
	for _, w := range workload.All() {
		m := w.Build(scale)
		if err := passes.Build(passes.LevelTracking).Run(m); err != nil {
			b.Fatal(err)
		}
		b.Run(w.Name, func(b *testing.B) {
			var hits, misses uint64
			for i := 0; i < b.N; i++ {
				v, err := Load(m, DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := v.Run(); err != nil {
					b.Fatal(err)
				}
				h, mi, _ := v.XCacheStats()
				hits, misses = hits+h, misses+mi
				if err := v.Release(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(misses)/float64(b.N), "misses/run")
			b.ReportMetric(100*float64(misses)/float64(max(hits+misses, 1)), "miss-%")
		})
	}
}
