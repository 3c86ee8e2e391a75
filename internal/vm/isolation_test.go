package vm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"carat/internal/guard"
	"carat/internal/kernel"
	"carat/internal/passes"
)

// Scrub-on-grant exists for one property: a process never reads a previous
// owner's bytes. The kernel clears only the pages its dirty map says
// somebody wrote, so the property now rests on every guest-reachable write
// route marking that map. These tests dirty a process's memory by each
// route, retire it, hand the same frames to a second process, and require
// that process to see nothing but zeros — from the host before it runs, and
// from the guest's own loads.

const (
	isoHeapBytes  = 1 << 20
	isoStackBytes = 1 << 16
	isoBigBytes   = 768 << 10
	// The machine is one tenant plus headroom for its move destinations:
	// the second tenant's heap cannot avoid the first one's frames.
	isoMachineBytes = isoHeapBytes + isoStackBytes + 68*kernel.PageSize
)

// isoDirtySrc is the first tenant. Each write route gets pages nothing else
// writes, so a route that forgot to mark the dirty map leaves bytes behind
// that only it could have hidden:
//   - the four store widths fill one quarter of %big each (stride 509:
//     every page, and across page boundaries);
//   - @poke stores through a pointer it reloads, so each store keeps its
//     guard beside it and the compiled engine fuses the two; its second
//     call finds the guard cache warm and the pages just cleaned by a
//     four-page calloc, which is the fused hit path's Store64 alone;
//   - the three-page initialised global @tab is written by the loader;
//   - the calloc'd %z is written once, before any move, then carried to
//     fresh frames by the injected worst-case page moves. Those pick the
//     page of the most-escaped allocation, %small, and widen to whole
//     allocations: %small and %z, fenced from the rest by a freed (so
//     untracked) pad.
//
// A swap takes %small; each lap's latch stores through a pointer reloaded
// from a global, which is what faults the swapped-out block back in.
var isoDirtySrc = fmt.Sprintf(`module "dirty"
global @s1 : ptr
global @s2 : ptr
global @slot : ptr
global @cz : ptr
global @tab : [12288 x i8] = #%s
func @malloc(%%sz: i64) -> ptr
func @calloc(%%n: i64, %%sz: i64) -> ptr
func @free(%%p: ptr) -> void
func @poke() -> void {
entry:
  br ^loop
loop:
  %%i = phi i64 [0, ^entry], [%%i1, ^loop]
  %%b = load ptr, @cz
  %%q = gep i64, %%b, %%i
  store i64 -1, %%q
  %%i1 = add i64 %%i, 500
  %%c = icmp slt i64 %%i1, 2048
  condbr %%c, ^loop, ^done
done:
  ret void
}
func @main() -> i64 {
entry:
  %%small = call ptr @malloc(i64 600)
  store ptr %%small, @s1
  store ptr %%small, @s2
  %%z = call ptr @calloc(i64 1024, i64 8)
  %%zq = gep i64, %%z, 1023
  store i64 -1, %%zq
  %%pad = call ptr @malloc(i64 8192)
  %%big = call ptr @malloc(i64 %[2]d)
  call void @free(ptr %%pad)
  store ptr %%big, @slot
  %%c1 = call ptr @calloc(i64 4, i64 4096)
  store ptr %%c1, @cz
  call void @poke()
  call void @free(ptr %%c1)
  %%c2 = call ptr @calloc(i64 4, i64 4096)
  store ptr %%c2, @cz
  call void @poke()
  br ^lap
lap:
  %%l = phi i64 [0, ^entry], [%%l1, ^latch]
  %%b1 = load ptr, @slot
  %%b2 = gep i8, %%b1, %[3]d
  %%b4 = gep i8, %%b2, %[3]d
  %%b8 = gep i8, %%b4, %[3]d
  br ^fill
fill:
  %%o = phi i64 [0, ^lap], [%%o1, ^fill]
  %%p1 = gep i8, %%b1, %%o
  store i8 -1, %%p1
  %%p2 = gep i8, %%b2, %%o
  store i16 -1, %%p2
  %%p4 = gep i8, %%b4, %%o
  store i32 -1, %%p4
  %%p8 = gep i8, %%b8, %%o
  store i64 -1, %%p8
  %%o1 = add i64 %%o, 509
  %%c = icmp slt i64 %%o1, %[4]d
  condbr %%c, ^fill, ^latch
latch:
  %%sp = load ptr, @s1
  %%sq = gep i64, %%sp, 74
  store i64 -1, %%sq
  %%l1 = add i64 %%l, 1
  %%lc = icmp slt i64 %%l1, 3
  condbr %%lc, ^lap, ^done
done:
  ret i64 0
}`, strings.Repeat("a5", 12288), isoBigBytes, isoBigBytes/4, isoBigBytes/4-8)

// isoFoldSrc is the second tenant: it ORs together every word of a fresh
// block covering most of its heap. Anything but 0 is a previous owner's
// byte.
var isoFoldSrc = fmt.Sprintf(`module "fold"
func @malloc(%%sz: i64) -> ptr
func @main() -> i64 {
entry:
  %%p = call ptr @malloc(i64 %d)
  br ^loop
loop:
  %%i = phi i64 [0, ^entry], [%%i1, ^loop]
  %%acc = phi i64 [0, ^entry], [%%acc1, ^loop]
  %%q = gep i64, %%p, %%i
  %%x = load i64, %%q
  %%acc1 = or i64 %%acc, %%x
  %%i1 = add i64 %%i, 1
  %%c = icmp slt i64 %%i1, %d
  condbr %%c, ^loop, ^done
done:
  ret i64 %%acc1
}`, isoBigBytes, isoBigBytes/8)

// isoRoutes are the ways the first tenant's run is perturbed.
var isoRoutes = []struct {
	name   string
	policy func(v *VM) (fired func() int)
}{
	{"stores", func(*VM) func() int { return nil }},
	{"page-moves", func(v *VM) func() int {
		moves := 0
		v.SetMovePolicy(9000, func() error {
			if moves == 4 {
				return nil
			}
			moves++
			return v.InjectWorstCaseMove()
		})
		return func() int { return int(v.Kernel().Stats.PageMoves.Get()) }
	}},
	{"swap", func(v *VM) func() int {
		v.SetMovePolicy(9000, func() error {
			// %small while it is resident; %big is beyond the swap device.
			base, length, ok := v.Runtime().WorstCaseHeapAllocation(v.heap.base, v.heap.end)
			if !ok || length > kernel.PageSize {
				return nil
			}
			_, err := v.SwapOutAllocation(base)
			return err
		})
		return func() int { return int(v.Runtime().Stats.SwapIns.Get()) }
	}},
}

func TestGrantedMemoryReadsZeroAfterADirtyTenant(t *testing.T) {
	dirty := compile(t, isoDirtySrc, passes.LevelTracking)
	fold := compile(t, isoFoldSrc, passes.LevelTracking)
	type leg struct {
		name string
		on   bool
	}
	for _, engine := range []leg{{"reference", reference}, {"compiled", compiled}} {
		for _, layout := range []leg{{"capsule", true}, {"regions", false}} {
			for _, route := range isoRoutes {
				t.Run(engine.name+"/"+layout.name+"/"+route.name, func(t *testing.T) {
					k := kernel.New(isoMachineBytes)
					free := k.Alloc.FreePages()
					cfg := DefaultConfig()
					cfg.Kernel = k
					cfg.HeapBytes, cfg.StackBytes = isoHeapBytes, isoStackBytes
					cfg.Capsule = layout.on
					cfg.Closure = engine.on

					a, err := Load(dirty, cfg)
					if err != nil {
						t.Fatal(err)
					}
					fired := route.policy(a)
					if _, err := a.Run(); err != nil {
						t.Fatal(err)
					}
					if fired != nil && fired() == 0 {
						t.Fatalf("route %s never fired", route.name)
					}
					was := append([]guard.Region(nil), a.Process().Regions.Regions()...)
					if err := a.Release(); err != nil {
						t.Fatal(err)
					}
					// Freed frames keep their contents: the test has teeth
					// only if the first tenant's bytes are still there.
					if n := nonzeroBytes(t, k, was); n < isoBigBytes/509 {
						t.Fatalf("only %d nonzero bytes left behind by the first tenant", n)
					}

					scrubbed := k.Stats.PagesScrubbed.Get()
					b, err := Load(fold, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if k.Stats.PagesScrubbed.Get() == scrubbed {
						t.Error("the second tenant's grants scrubbed nothing: it did not reuse dirty frames")
					}
					if n := nonzeroBytes(t, k, b.Process().Regions.Regions()); n != 0 {
						t.Errorf("%d nonzero bytes in the second tenant's freshly granted regions", n)
					}
					if ret, err := b.Run(); err != nil || ret != 0 {
						t.Errorf("second tenant folded its fresh heap to %#x, %v; want 0", uint64(ret), err)
					}
					if err := b.Release(); err != nil {
						t.Fatal(err)
					}
					// The frames the second tenant did not get (vacated move
					// sources and destinations among them) obey the same rule.
					sweep := k.NewProcess()
					for k.Alloc.FreePages() > 0 {
						if _, err := sweep.GrantRegion(kernel.PageSize, guard.PermRW); err != nil {
							t.Fatal(err)
						}
					}
					if n := nonzeroBytes(t, k, sweep.Regions.Regions()); n != 0 {
						t.Errorf("%d nonzero bytes in a page-by-page grant of the whole machine", n)
					}
					if err := sweep.ReleaseAll(); err != nil {
						t.Fatal(err)
					}
					if n := k.OwnedPageCount(); n != 0 {
						t.Errorf("OwnedPageCount = %d after every process released, want 0", n)
					}
					if got := k.Alloc.FreePages(); got != free {
						t.Errorf("free pages = %d, want %d", got, free)
					}
				})
			}
		}
	}
}

// nonzeroBytes reads every region from the host side and counts the bytes
// that are not zero.
func nonzeroBytes(t *testing.T, k *kernel.Kernel, regs []guard.Region) int {
	t.Helper()
	n := 0
	for _, r := range regs {
		img := make([]byte, r.Len)
		if err := k.Mem.ReadAt(r.Base, img); err != nil {
			t.Fatal(err)
		}
		n += len(img) - bytes.Count(img, []byte{0})
	}
	return n
}
