package kernel

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"carat/internal/guard"
)

// testLimiter is a minimal Limiter: a hard page cap shared by every
// process it is installed on (the shape caratd uses per tenant).
type testLimiter struct {
	mu         sync.Mutex
	live       uint64
	max        uint64
	rejections int
}

func (l *testLimiter) ReservePages(n uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.live+n > l.max {
		l.rejections++
		return fmt.Errorf("test: %d+%d pages over cap %d: %w", l.live, n, l.max, ErrQuota)
	}
	l.live += n
	return nil
}

func (l *testLimiter) ReleasePages(n uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > l.live {
		l.live = 0
		return
	}
	l.live -= n
}

// TestConcurrentProcessLifecycle creates and tears down processes from
// many goroutines over ONE shared physical memory — the caratd serving
// pattern. Each goroutine stamps a unique byte into every page it was
// granted and re-verifies before teardown, so any allocator overlap
// between concurrently-live processes shows up as corruption (and the
// -race run catches unsynchronized allocator state). The machine is small
// enough that frames change hands many times: every grant must read zero
// although its frames carry another goroutine's stamps, and neighbouring
// pages' dirty marks are stored from different goroutines at once.
func TestConcurrentProcessLifecycle(t *testing.T) {
	k := New(1 << 21)
	initialFree := k.Alloc.FreePages()

	const goroutines = 16
	const iters = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stamp := byte(g + 1)
			for i := 0; i < iters; i++ {
				proc := k.NewProcess()
				var bases []uint64
				var lens []uint64
				for r := 0; r < 1+(g+i)%3; r++ {
					size := uint64(1+(g+i+r)%4) * PageSize
					base, err := proc.GrantRegion(size, guard.PermRW)
					if err != nil {
						t.Errorf("g%d i%d: grant: %v", g, i, err)
						return
					}
					img := make([]byte, size)
					if err := k.Mem.ReadAt(base, img); err != nil || !allZero(img) {
						t.Errorf("g%d i%d: granted region [%#x,+%d) does not read zero (%v)", g, i, base, size, err)
						return
					}
					pages := size / PageSize
					buf := make([]byte, PageSize)
					for b := range buf {
						buf[b] = stamp
					}
					for pg := uint64(0); pg < pages; pg++ {
						if err := k.Mem.WriteAt(base+pg*PageSize, buf); err != nil {
							t.Errorf("g%d i%d: write: %v", g, i, err)
							return
						}
					}
					bases, lens = append(bases, base), append(lens, size)
				}
				// Re-read everything: another process being granted an
				// overlapping frame would have clobbered our stamp.
				for r, base := range bases {
					for off := uint64(0); off < lens[r]; off += PageSize {
						got := make([]byte, 8)
						if err := k.Mem.ReadAt(base+off, got); err != nil {
							t.Errorf("g%d i%d: read: %v", g, i, err)
							return
						}
						if got[0] != stamp {
							t.Errorf("g%d i%d: frame %#x stamped %d, want %d (allocator overlap)",
								g, i, base+off, got[0], stamp)
							return
						}
					}
				}
				if err := proc.ReleaseAll(); err != nil {
					t.Errorf("g%d i%d: teardown: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if free := k.Alloc.FreePages(); free != initialFree {
		t.Errorf("free pages after teardown = %d, want %d (leak)", free, initialFree)
	}
}

// TestConcurrentQuotaExhaustion drives one shared limiter to its cap from
// many goroutines at once: reservations must never overshoot the cap,
// every rejection must be ErrQuota (not ErrNoMemory — physical memory is
// ample), and releasing everything must return the accounting to zero.
func TestConcurrentQuotaExhaustion(t *testing.T) {
	k := New(1 << 24)
	initialFree := k.Alloc.FreePages()
	lim := &testLimiter{max: 64}

	const goroutines = 8
	procs := make([]*Process, goroutines)
	quotaErrs := make([]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			proc := k.NewProcess()
			proc.SetLimiter(lim)
			procs[g] = proc
			// Grab 8-page regions until the shared quota rejects us; all
			// goroutines hold their grants, so exhaustion is guaranteed.
			for {
				_, err := proc.GrantRegion(8*PageSize, guard.PermRW)
				if err == nil {
					continue
				}
				if !errors.Is(err, ErrQuota) {
					t.Errorf("g%d: got %v, want ErrQuota", g, err)
				}
				if errors.Is(err, ErrNoMemory) {
					t.Errorf("g%d: quota rejection misreported as ErrNoMemory: %v", g, err)
				}
				quotaErrs[g]++
				return
			}
		}(g)
	}
	wg.Wait()

	lim.mu.Lock()
	live, rejections := lim.live, lim.rejections
	lim.mu.Unlock()
	if live > 64 {
		t.Errorf("limiter reserved %d pages, cap is 64 (overshoot)", live)
	}
	if rejections == 0 {
		t.Error("quota never rejected despite 8 goroutines contending for 64 pages")
	}
	for g, n := range quotaErrs {
		if n == 0 {
			t.Errorf("g%d never hit the quota", g)
		}
	}

	var granted uint64
	for _, proc := range procs {
		for _, r := range proc.Regions.Regions() {
			granted += r.Len / PageSize
		}
	}
	if granted != live {
		t.Errorf("limiter says %d live pages, region sets hold %d", live, granted)
	}

	for _, proc := range procs {
		if err := proc.ReleaseAll(); err != nil {
			t.Errorf("teardown: %v", err)
		}
	}
	lim.mu.Lock()
	live = lim.live
	lim.mu.Unlock()
	if live != 0 {
		t.Errorf("limiter live = %d after teardown, want 0", live)
	}
	if free := k.Alloc.FreePages(); free != initialFree {
		t.Errorf("free pages after teardown = %d, want %d (leak)", free, initialFree)
	}
}

// TestPartialLoadTeardown covers the mid-load failure path: a process
// whose later grant is rejected by quota must still return every page it
// did get via ReleaseAll, and a second ReleaseAll must be a no-op.
func TestPartialLoadTeardown(t *testing.T) {
	k := New(1 << 22)
	initialFree := k.Alloc.FreePages()
	lim := &testLimiter{max: 12}

	proc := k.NewProcess()
	proc.SetLimiter(lim)
	if _, err := proc.GrantRegion(8*PageSize, guard.PermRW); err != nil {
		t.Fatalf("first grant: %v", err)
	}
	if _, err := proc.GrantRegion(8*PageSize, guard.PermRW); !errors.Is(err, ErrQuota) {
		t.Fatalf("second grant: got %v, want ErrQuota", err)
	}
	if err := proc.ReleaseAll(); err != nil {
		t.Fatalf("teardown: %v", err)
	}
	if err := proc.ReleaseAll(); err != nil {
		t.Fatalf("second teardown should be a no-op, got: %v", err)
	}
	if lim.live != 0 {
		t.Errorf("limiter live = %d, want 0", lim.live)
	}
	if free := k.Alloc.FreePages(); free != initialFree {
		t.Errorf("free pages = %d, want %d", free, initialFree)
	}
}
