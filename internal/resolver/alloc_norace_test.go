//go:build !race

// The allocation guard skips under -race: the race detector makes
// sync.Pool drop a share of Puts on purpose, so the receive buffer is
// reallocated often enough to break any fixed bound.

package resolver

import (
	"context"
	"runtime"
	"testing"
)

// TestUncachedLookupAllocBound requires an uncached lookup to allocate
// far less than the 64 KiB UDP receive buffer: the buffer comes from
// udpBufPool instead of a fresh allocation per query. TotalAlloc is
// process-wide, so the figure includes the loopback server's share.
func TestUncachedLookupAllocBound(t *testing.T) {
	const lookups = 500
	const bound = 16 << 10
	_, c := serveZone(t, payloadZone(1))
	c.Cache = nil
	ctx := context.Background()
	name := payloadName(0)
	// One untimed lookup fills the pool.
	if _, err := c.LookupTXT(ctx, name); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < lookups; i++ {
		if _, err := c.LookupTXT(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / lookups; per >= bound {
		t.Errorf("uncached lookup allocates %d B on average, want < %d B", per, bound)
	} else {
		t.Logf("uncached lookup allocates %d B on average", per)
	}
}
