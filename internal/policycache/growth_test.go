package policycache

import (
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/netsecurelab/mtasts/internal/store"
)

// compactFloor mirrors internal/store's: the superseded bytes a synced
// store may hold before it compacts.
const compactFloor = 1 << 20

// dirBytes sums the sizes of the files in dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestMonthOfRefreshesStaysBounded runs a sender's refresh loop for a
// simulated month: every hour it re-stores each of a few hundred
// domains whose policy expires within the hour, 720 times in all,
// without ever closing the cache. The cache directory must stay under
// twice its live records plus the store's compaction floor, so its
// size and restart cost follow the live domains, not the history.
func TestMonthOfRefreshesStaysBounded(t *testing.T) {
	const (
		domains = 256
		cycles  = 720
	)
	dir := t.TempDir()
	clk := newClock()
	st, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, st, Options{Now: clk.Now})
	name := func(i int) string { return fmt.Sprintf("domain%03d.test", i) }
	for i := 0; i < domains; i++ {
		maxAge := int64(6+i%19) * 3600 // 6h to 24h
		c.Store(name(i), testPolicy("mx."+name(i), maxAge), "20260801T000000")
	}

	stores := domains
	var peak int64
	for cycle := 1; cycle <= cycles; cycle++ {
		clk.Advance(time.Hour)
		for _, d := range c.ExpiringWithin(time.Hour) {
			e, _ := c.GetStale(d)
			c.Store(d, e.Policy, clk.Now().Format("20060102T150405"))
			stores++
		}
		peak = max(peak, dirBytes(t, dir))
	}
	if s := c.Stats(); s.PersistErrors != 0 || s.Entries != domains {
		t.Fatalf("after the month: %+v, want %d entries and no persist errors", s, domains)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The live records' size: the same records written once each.
	liveDir := t.TempDir()
	src, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := store.OpenDisk(liveDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Scan("", dst.Put); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	live := dirBytes(t, liveDir)

	bound := 2*live + compactFloor
	if written := int64(stores) * live / domains; written < 2*bound {
		t.Fatalf("the month wrote only ~%d bytes, too little history to test a %d-byte bound", written, bound)
	}
	if peak >= bound {
		t.Fatalf("cache directory peaked at %d bytes over %d stores; want under 2×%d live + %d floor = %d",
			peak, stores, live, compactFloor, bound)
	}

	// Restart: every domain comes back from the bounded directory.
	c2 := mustOpen(t, src, Options{Now: clk.Now})
	defer func() {
		if err := c2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if c2.Len() != domains {
		t.Fatalf("restart recovered %d domains, want %d", c2.Len(), domains)
	}
	t.Logf("%d stores: peak %d bytes on disk, %d live, %d after restart", stores, peak, live, dirBytes(t, dir))
}
