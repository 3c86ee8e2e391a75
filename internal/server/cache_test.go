package server

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"carat/internal/obs"
	"carat/internal/vm"
)

// TestCacheKeyStableAndCopyFree: the ref is the sha256 over the four
// length-prefixed parts (clients hold refs, so the value is pinned), and
// computing it does not copy the source text.
func TestCacheKeyStableAndCopyFree(t *testing.T) {
	const want = "901b5be4ab10108fbb5e0a3ad6ea469d7846a564e01566b0ebf44edcd4569994"
	if got := cacheKey("cc", "carat", "m", "func main(): int { return 0; }"); got != want {
		t.Errorf("cacheKey = %s, want %s", got, want)
	}
	if cacheKey("cc", "carat", "ab", "c") == cacheKey("cc", "carat", "a", "bc") {
		t.Error("field boundaries collide")
	}
	big := strings.Repeat("x", 1<<20)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	cacheKey("cc", "carat", "m", big)
	runtime.ReadMemStats(&ms)
	if got := ms.TotalAlloc - before; got > 64<<10 {
		t.Errorf("cacheKey allocated %d bytes hashing 1 MB of source, want well under the source's size", got)
	}
}

// progCall has a guest-to-guest call site, so the compiled engine's call
// counters move.
const progCall = `
global acc: [8]int;
func weigh(x: int, k: int): int {
    acc[k & 7] = acc[k & 7] + x;
    return x * 3 + k;
}
func main(): int {
    var t = 0;
    for (var i = 0; i < 200; i = i + 1) { t = t + weigh(i, t); }
    for (var b = 0; b < 8; b = b + 1) { print_int(acc[b]); }
    return t;
}`

// TestCodeCacheFirstHitRetention: the request that compiles a module runs on
// a throwaway Program and leaves none on the entry; the first cache hit
// creates the entry's Program and lowers the module into it; every later hit
// lowers nothing. All of them answer with the same digest.
func TestCodeCacheFirstHitRetention(t *testing.T) {
	cfg := testConfig()
	s, ts := newTestServer(t, cfg)
	req := map[string]any{"tenant": "t", "kind": "cc", "name": "call", "source": progCall, "seed": 7}
	counter := func(name string) uint64 { return s.Obs().Counter(name).Get() }

	type step struct {
		cached       bool
		hits, misses uint64 // carat.server.code_cache.* after the request
		lowers       bool   // the request's VM compiled closure blocks
	}
	var digest string
	var ref string
	for i, want := range []step{
		{cached: false, hits: 0, misses: 1, lowers: true},
		{cached: true, hits: 0, misses: 2, lowers: true},
		{cached: true, hits: 1, misses: 2, lowers: false},
		{cached: true, hits: 2, misses: 2, lowers: false},
	} {
		blocks, ic := counter("carat.vm.closure.blocks"), counter("carat.vm.closure.ic_hits")+counter("carat.vm.closure.ic_misses")
		resp, doc := post(t, ts.URL+"/v1/run", req)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d: %v", i, resp.StatusCode, doc)
		}
		if got := doc["cached"].(bool); got != want.cached {
			t.Errorf("request %d: cached = %v, want %v", i, got, want.cached)
		}
		if h, m := counter("carat.server.code_cache.hits"), counter("carat.server.code_cache.misses"); h != want.hits || m != want.misses {
			t.Errorf("request %d: code_cache hits/misses = %d/%d, want %d/%d", i, h, m, want.hits, want.misses)
		}
		if delta := counter("carat.vm.closure.blocks") - blocks; (delta > 0) != want.lowers {
			t.Errorf("request %d: carat.vm.closure.blocks moved by %d, want lowering = %v", i, delta, want.lowers)
		}
		if counter("carat.vm.closure.ic_hits")+counter("carat.vm.closure.ic_misses") == ic {
			t.Errorf("request %d: no compiled call site ran", i)
		}
		if d := doc["digest"].(string); digest == "" {
			digest, ref = d, doc["ref"].(string)
		} else if d != digest {
			t.Errorf("request %d: digest %s, want %s", i, d, digest)
		}
		if e := s.cache.get(ref); e == nil {
			t.Fatalf("request %d: entry %s not cached", i, ref)
		} else if has := e.prog.Load() != nil; has != (i > 0) {
			t.Errorf("request %d: entry holds a Program = %v, want %v", i, has, i > 0)
		}
	}
}

// TestEvictionDropsProgram: an entry's Program lives exactly as long as the
// entry. Once the LRU evicts it and no request is running on it, the
// compiled code is garbage.
func TestEvictionDropsProgram(t *testing.T) {
	cfg := testConfig()
	cfg.CacheEntries = 2
	s, ts := newTestServer(t, cfg)
	run := func(name, src string) string {
		resp, doc := post(t, ts.URL+"/v1/run", map[string]any{"tenant": "t", "kind": "cc", "name": name, "source": src})
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %v", name, resp.StatusCode, doc)
		}
		return doc["ref"].(string)
	}
	ref := run("sum", progSum)
	run("sum", progSum) // first hit: the entry acquires its Program
	collected := make(chan struct{})
	func() { // keep the entry and its Program off this frame's stack
		prog := s.cache.get(ref).prog.Load()
		if prog == nil {
			t.Fatal("no Program on the entry after a cache hit")
		}
		runtime.SetFinalizer(prog, func(*vm.Program) { close(collected) })
	}()
	run("chain", progChain)
	run("loop", progLoop) // third distinct module: the LRU drops "sum"
	if s.cache.get(ref) != nil {
		t.Fatal("the entry was not evicted")
	}
	if got := s.Obs().Counter("carat.server.module_cache.evictions").Get(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Error("the evicted entry's Program was never collected: something still holds it")
}

// TestGetOrCompilePanicFreesWaiters: a compile that panics while a second
// request waits on the same key hands that waiter an error, gives back its
// worker slot and queue count, and leaves nothing in flight, so a third
// request compiles afresh. The panic itself still reaches the compiling
// goroutine.
func TestGetOrCompilePanicFreesWaiters(t *testing.T) {
	c := newModuleCache(8, 0, 2, obs.NewRegistry())
	started, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.getOrCompile("k", func() (*moduleEntry, error) {
			close(started)
			<-release
			panic("compiler bug")
		})
	}()
	<-started
	waited := make(chan error, 1)
	go func() {
		_, _, err := c.getOrCompile("k", func() (*moduleEntry, error) {
			return nil, errors.New("the waiter compiled instead of joining the flight")
		})
		waited <- err
	}()
	// Release the compile only once both goroutines block inside
	// getOrCompile: the compiler on release, the waiter on the flight.
	for deadline := time.Now().Add(5 * time.Second); blockedIn("getOrCompile") < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the waiter never joined the flight")
		}
	}
	close(release)
	select {
	case err := <-waited:
		if !errors.Is(err, errCompilePanicked) {
			t.Errorf("waiter got %v, want %v", err, errCompilePanicked)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter is still blocked 5 s after the compile panicked")
	}
	if p := <-panicked; p != "compiler bug" {
		t.Errorf("the compiling goroutine recovered %v, want the compile's own panic", p)
	}
	if d, n := c.queueDepth.Get(), len(c.sem); d != 0 || n != 0 {
		t.Errorf("after the panic: queue depth %d, %d worker slots held; want 0 and 0", d, n)
	}
	compiled := false
	e, cached, err := c.getOrCompile("k", func() (*moduleEntry, error) { compiled = true; return &moduleEntry{}, nil })
	if err != nil || e == nil || cached || !compiled {
		t.Errorf("third request: entry %v, cached %v, err %v, compiled %v; want a fresh compile", e, cached, err, compiled)
	}
}

// blockedIn counts the goroutines blocked on a channel receive with fn on
// their stack.
func blockedIn(fn string) int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "[chan receive") && strings.Contains(g, fn) {
			n++
		}
	}
	return n
}
