package server

import (
	"runtime"
	"strings"
	"testing"
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
