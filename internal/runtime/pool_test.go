package runtime

import (
	goruntime "runtime"
	"testing"
)

// held counts what p holds, without taking it: a Get would hand an object
// out, and its Put back would start its idle time again.
func (p *Pool[T]) held() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.cur) + len(p.old)
}

// TestPoolLifetime: an object Put and taken at once comes back, and one left
// idle across two collections is let go, so a pool holds no more than its
// users put back recently (the table stocks, the heap class tables, the
// escape scratch and the xcaches all live in one).
func TestPoolLifetime(t *testing.T) {
	var p Pool[int]
	x := new(int)
	p.Put(x)
	if got := p.Get(); got != x {
		t.Fatalf("Get after Put = %p, want %p", got, x)
	}
	if got := p.Get(); got != nil {
		t.Fatalf("Get from an empty pool = %p, want nil", got)
	}
	p.Put(new(int))
	for gcs := 0; p.held() != 0; gcs++ {
		if gcs == 10 {
			t.Fatal("an idle object outlived 10 collections")
		}
		goruntime.GC()
	}
	if got := p.Get(); got != nil {
		t.Fatalf("Get after the object aged out = %p, want nil", got)
	}
}
