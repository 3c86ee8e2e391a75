package runtime

import (
	goruntime "runtime"
	"sync"
)

// Pool recycles one kind of per-process scratch across processes: the escape
// buffers' batches, the allocation tables' stocks, the VM heap's class
// tables, the guard/translation caches. It keeps sync.Pool's lifetime, an object idle across two garbage
// collections is let go, but not its chance: sync.Pool drops a quarter of
// its Puts under the race detector and a Pool none, so a warm guest's reuse
// holds exactly in every build. The zero Pool is empty.
type Pool[T any] struct {
	mu       sync.Mutex
	cur, old []*T // put since the last collection, and before it
	aging    sync.Once
}

// Get returns an object Put earlier, the latest first, or nil.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range [...]*[]*T{&p.cur, &p.old} {
		if n := len(*l); n > 0 {
			x := (*l)[n-1]
			(*l)[n-1], *l = nil, (*l)[:n-1]
			return x
		}
	}
	return nil
}

// Put hands x back for a later Get; the caller keeps no reference to it.
func (p *Pool[T]) Put(x *T) {
	p.aging.Do(func() {
		pools.Lock()
		pools.list = append(pools.list, p)
		pools.Unlock()
	})
	p.mu.Lock()
	p.cur = append(p.cur, x)
	p.mu.Unlock()
}

// age runs once per collection: what sat idle across the previous one goes.
func (p *Pool[T]) age() {
	p.mu.Lock()
	clear(p.old)
	p.cur, p.old = p.old[:0], p.cur
	p.mu.Unlock()
}

// pools lists every Pool that has held an object. A finalizer that re-arms
// itself ages them after each collection.
var pools struct {
	sync.Mutex
	list []interface{ age() }
}

type gcTick struct{ _ *gcTick }

func init() { tick() }

func tick() {
	goruntime.SetFinalizer(new(gcTick), func(*gcTick) {
		pools.Lock()
		for _, p := range pools.list {
			p.age()
		}
		pools.Unlock()
		tick()
	})
}
