package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"

	"carat/internal/ir"
	"carat/internal/obs"
	"carat/internal/vm"
)

// moduleEntry is one compiled, signature-verified module in the cache.
// After insertion the module is immutable (compilation mutates its input,
// so every compile parses a fresh module from source) and is shared by
// every VM that runs it concurrently.
//
// prog is the module's VM-independent code (vm.Program: register layouts
// and closure-compiled bodies), acquired on the entry's first cache HIT and
// shared by every later one, so a hot request lowers nothing. The request
// that compiled the module runs on a throwaway Program instead: compiled
// code retains roughly 90 B per IR instruction, and most never-seen
// modules never run twice. Eviction drops the Program with the entry.
type moduleEntry struct {
	ref   string
	mod   *ir.Module
	kind  string
	level string
	name  string
	bytes uint64 // source size, the unit of the cache's byte bound
	prog  atomic.Pointer[vm.Program]
}

// compileJob is one in-flight compilation; duplicate requests for the same
// key join it instead of compiling again (single-flight).
type compileJob struct {
	done  chan struct{}
	entry *moduleEntry
	err   error
}

// moduleCache is an LRU of compiled modules keyed by source hash, with a
// bounded compile worker pool in front: cache misses queue onto the pool,
// so a burst of distinct sources compiles at most `workers` at a time
// while identical sources coalesce into one job.
type moduleCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   uint64
	bytes      uint64
	ll         *list.List // front = most recently used; values are *moduleEntry
	items      map[string]*list.Element
	inflight   map[string]*compileJob

	sem chan struct{} // compile worker slots

	hits, misses, evictions *obs.Counter
	codeHits, codeMisses    *obs.Counter
	queueDepth              *obs.Gauge
}

func newModuleCache(maxEntries int, maxBytes uint64, workers int, reg *obs.Registry) *moduleCache {
	return &moduleCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		inflight:   make(map[string]*compileJob),
		sem:        make(chan struct{}, workers),
		hits:       reg.Counter("carat.server.module_cache.hits"),
		misses:     reg.Counter("carat.server.module_cache.misses"),
		evictions:  reg.Counter("carat.server.module_cache.evictions"),
		codeHits:   reg.Counter("carat.server.code_cache.hits"),
		codeMisses: reg.Counter("carat.server.code_cache.misses"),
		queueDepth: reg.Gauge("carat.server.compile_queue_depth"),
	}
}

// cacheKey derives the module reference: a hash over everything that
// determines the compiled artifact — source language, pipeline level,
// module name, and the source text itself.
func cacheKey(kind, level, name, source string) string {
	h := sha256.New()
	// The source text is hashed through chunk rather than as []byte(part):
	// that conversion copies the whole source once per request, and
	// io.WriteString does the same, since sha256 has no WriteString.
	var chunk [1024]byte
	for _, part := range []string{kind, level, name, source} {
		var n [8]byte
		for i, l := 0, len(part); i < 8; i++ {
			n[i] = byte(l >> (8 * i))
		}
		h.Write(n[:]) // length-prefix each part so field boundaries can't collide
		for len(part) > 0 {
			c := copy(chunk[:], part)
			h.Write(chunk[:c])
			part = part[c:]
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// get returns the entry for ref, bumping it to most-recently-used. The
// miss counter is NOT advanced here: a ref lookup miss is the client's
// error (404), not cache pressure.
func (c *moduleCache) get(ref string) *moduleEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[ref]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*moduleEntry)
}

// getOrCompile returns the cached entry for the key, or runs compile on
// the bounded worker pool (coalescing concurrent identical requests) and
// caches the result. The bool reports whether the entry came from cache.
func (c *moduleCache) getOrCompile(key string, compile func() (*moduleEntry, error)) (*moduleEntry, bool, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		c.mu.Unlock()
		return el.Value.(*moduleEntry), true, nil
	}
	if job, ok := c.inflight[key]; ok {
		// Someone is already compiling this source: join their flight.
		c.mu.Unlock()
		<-job.done
		return job.entry, true, job.err
	}
	c.misses.Inc()
	job := &compileJob{done: make(chan struct{})}
	c.inflight[key] = job
	c.mu.Unlock()

	c.queueDepth.Add(1)
	c.sem <- struct{}{} // wait for a compile worker slot
	returned := false
	// One deferred cleanup, so that a compile that panics still frees its
	// slot and its flight: the panic goes on up this goroutine, and every
	// waiter on the key gets errCompilePanicked instead of blocking forever.
	defer func() {
		<-c.sem
		c.queueDepth.Add(^uint64(0)) // -1
		if !returned {
			job.entry, job.err = nil, errCompilePanicked
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if job.err == nil {
			job.entry.ref = key
			c.insert(key, job.entry)
		}
		c.mu.Unlock()
		close(job.done)
	}()
	job.entry, job.err = compile()
	returned = true
	return job.entry, false, job.err
}

// errCompilePanicked is what the waiters on a compile that panicked get.
var errCompilePanicked = errors.New("server: compile panicked")

// program returns the code object a request for e runs on. A request that
// found e in the cache shares the entry's Program, creating it if this is
// the first hit (code_cache miss) and reusing it otherwise (hit); the
// request that compiled e gets a private one (miss), which dies with it.
func (c *moduleCache) program(e *moduleEntry, cached bool) (*vm.Program, error) {
	if cached {
		if p := e.prog.Load(); p != nil {
			c.codeHits.Inc()
			return p, nil
		}
	}
	c.codeMisses.Inc()
	p, err := vm.NewProgram(e.mod)
	if err != nil || !cached {
		return p, err
	}
	if !e.prog.CompareAndSwap(nil, p) {
		p = e.prog.Load() // a concurrent first hit published its Program first
	}
	return p, nil
}

// insert adds the entry and evicts from the LRU tail until both bounds
// hold. Called with c.mu held.
func (c *moduleCache) insert(key string, e *moduleEntry) {
	if el, ok := c.items[key]; ok { // lost a benign race; keep the first
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(e)
	c.bytes += e.bytes
	for c.ll.Len() > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes && c.ll.Len() > 1) {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		old := tail.Value.(*moduleEntry)
		c.ll.Remove(tail)
		delete(c.items, old.ref)
		c.bytes -= old.bytes
		c.evictions.Inc()
	}
}

// Len reports the number of cached modules (for tests).
func (c *moduleCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
