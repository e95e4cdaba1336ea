package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMemDiskEquivalence drives Mem and Disk through the same random
// operation sequence and asserts every observable — Get results, full
// and prefixed Scans — agrees at each checkpoint, including across a
// Close/reopen of the disk backend and the compactions that Close and
// Sync run. This is the property that lets the campaign layer treat the
// two backends as interchangeable.
func TestMemDiskEquivalence(t *testing.T) {
	setFloor(t, 2<<10) // let Sync compact a store this small
	renames := 0
	withSteps(t, func(step string) {
		if step == "rename" {
			renames++
		}
	})
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			mem := NewMem()
			disk, err := OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			disk.SegmentBytes = 1 << 10 // exercise rotation constantly

			key := func() string {
				return fmt.Sprintf("%c/%03d", 'a'+rng.Intn(3), rng.Intn(60))
			}
			value := func() []byte {
				return []byte(strings.Repeat(string(rune('A'+rng.Intn(26))), rng.Intn(40)))
			}

			const ops = 600
			for i := 0; i < ops; i++ {
				switch rng.Intn(11) {
				case 0, 1, 2, 3, 4: // Put
					k, v := key(), value()
					if err := mem.Put(k, v); err != nil {
						t.Fatal(err)
					}
					if err := disk.Put(k, v); err != nil {
						t.Fatal(err)
					}
				case 5, 6: // Batch
					n := rng.Intn(8)
					batch := make([]Entry, n)
					for j := range batch {
						batch[j] = Entry{Key: key(), Value: value()}
					}
					if err := mem.Batch(batch); err != nil {
						t.Fatal(err)
					}
					if err := disk.Batch(batch); err != nil {
						t.Fatal(err)
					}
				case 7: // Get
					k := key()
					mv, mok, merr := mem.Get(k)
					dv, dok, derr := disk.Get(k)
					if merr != nil || derr != nil || mok != dok || string(mv) != string(dv) {
						t.Fatalf("op %d: Get(%q) diverged: mem=(%q,%v,%v) disk=(%q,%v,%v)",
							i, k, mv, mok, merr, dv, dok, derr)
					}
				case 8: // reopen disk mid-sequence
					if err := disk.Close(); err != nil {
						t.Fatal(err)
					}
					disk, err = OpenDisk(dir)
					if err != nil {
						t.Fatal(err)
					}
					disk.SegmentBytes = 1 << 10
				case 9: // compare a prefixed scan
					p := string(rune('a' + rng.Intn(3)))
					compareScans(t, mem, disk, p)
				case 10: // Sync, which compacts past the floor
					if err := disk.Sync(); err != nil {
						t.Fatal(err)
					}
					if disk.dead >= compactFloor && disk.dead > disk.size-disk.dead {
						t.Fatalf("op %d: Sync left %d superseded bytes of %d", i, disk.dead, disk.size)
					}
				}
			}
			compareScans(t, mem, disk, "")
			compareScans(t, mem, disk, "a/")
			compareScans(t, mem, disk, "b/0")

			// One final reopen: durability of the whole history.
			if err := disk.Close(); err != nil {
				t.Fatal(err)
			}
			disk, err = OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()
			compareScans(t, mem, disk, "")
		})
	}
	if renames == 0 {
		t.Fatal("no operation sequence compacted the store")
	}
}

// setFloor lowers compactFloor for one test.
func setFloor(t *testing.T, n int64) {
	old := compactFloor
	compactFloor = n
	t.Cleanup(func() { compactFloor = old })
}

// withSteps installs a compaction step hook for one test.
func withSteps(t *testing.T, fn func(step string)) {
	compactStep = fn
	t.Cleanup(func() { compactStep = nil })
}

// crash is the panic value with which the crash drill abandons a store
// in the middle of a compaction.
type crash struct{}

// drillStore fills dir with a rotated log that is mostly superseded
// records, mirroring every write into the returned Mem model.
func drillStore(t *testing.T, dir string) (*Disk, *Mem) {
	t.Helper()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	d.SegmentBytes = 1 << 10 // several old segments and several outputs
	mem := NewMem()
	for round := 0; round < 6; round++ {
		batch := make([]Entry, 0, 30)
		for k := 0; k < 30; k++ {
			batch = append(batch, Entry{Key: fmt.Sprintf("k/%02d", k), Value: []byte(fmt.Sprintf("round %d of %d", round, k))})
		}
		if err := d.Batch(batch); err != nil {
			t.Fatal(err)
		}
		if err := mem.Batch(batch); err != nil {
			t.Fatal(err)
		}
	}
	return d, mem
}

// TestCompactionCrashDrill abandons a compacting store after each of
// its steps — output written, fsynced, renamed, directory fsynced,
// each old segment removed — and requires the reopened directory to
// Scan exactly like the Mem model, to leave no temp file behind, and to
// keep working: a further write survives another Close and reopen.
func TestCompactionCrashDrill(t *testing.T) {
	setFloor(t, 512)
	for _, trigger := range []string{"close", "sync"} {
		t.Run(trigger, func(t *testing.T) {
			compact := func(d *Disk) error {
				if trigger == "sync" {
					return d.Sync()
				}
				return d.Close()
			}
			var steps []string
			withSteps(t, func(step string) { steps = append(steps, step) })
			d, _ := drillStore(t, t.TempDir())
			old := d.Segments()
			if err := compact(d); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			want := 3*2 + 1 + old + 1 // >= 2 outputs, dir sync, removes, dir sync
			if len(steps) < want {
				t.Fatalf("compaction took steps %v, want at least %d", steps, want)
			}

			for i, name := range steps {
				t.Run(fmt.Sprintf("%02d-%s", i, name), func(t *testing.T) {
					dir := t.TempDir()
					d, mem := drillStore(t, dir)
					n := 0
					withSteps(t, func(string) {
						if n == i {
							panic(crash{})
						}
						n++
					})
					func() {
						defer func() {
							if r := recover(); r != (crash{}) {
								t.Fatalf("compaction did not reach step %d (recovered %v)", i, r)
							}
						}()
						_ = compact(d) // panics at step i
					}()
					compactStep = nil
					_ = d.closeFiles() // the process is gone: release its handles, write nothing

					d, err := OpenDisk(dir)
					if err != nil {
						t.Fatalf("reopen after crash: %v", err)
					}
					if _, err := os.Stat(filepath.Join(dir, compactTemp)); !os.IsNotExist(err) {
						t.Fatalf("%s survived Open: %v", compactTemp, err)
					}
					compareScans(t, mem, d, "")
					for _, s := range []Store{mem, d} {
						if err := s.Put("k/after", []byte("crash")); err != nil {
							t.Fatal(err)
						}
					}
					if err := d.Close(); err != nil {
						t.Fatal(err)
					}
					if d, err = OpenDisk(dir); err != nil {
						t.Fatal(err)
					}
					defer d.Close()
					compareScans(t, mem, d, "")
				})
			}
		})
	}
}

// TestCompactTempNeverReplayed plants a leftover compaction output —
// one well-formed record and a torn one — and requires Open to delete
// it without replaying either.
func TestCompactTempNeverReplayed(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("k", []byte("live")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, compactTemp)
	leftover := `{"k":"k","v":"c3RhbGU="}` + "\n" + `{"k":"ghost","v":"QUJ`
	if err := os.WriteFile(tmp, []byte(leftover), 0o644); err != nil {
		t.Fatal(err)
	}

	d, err = OpenDisk(dir)
	if err != nil {
		t.Fatalf("open with leftover %s: %v", compactTemp, err)
	}
	defer d.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("%s survived Open: %v", compactTemp, err)
	}
	mem := NewMem()
	if err := mem.Put("k", []byte("live")); err != nil {
		t.Fatal(err)
	}
	compareScans(t, mem, d, "")
}

// compareScans asserts both backends yield the same ordered (key,
// value) stream for a prefix.
func compareScans(t *testing.T, a, b Store, prefix string) {
	t.Helper()
	dump := func(s Store) []string {
		var out []string
		if err := s.Scan(prefix, func(k string, v []byte) error {
			out = append(out, k+"\x00"+string(v))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	av, bv := dump(a), dump(b)
	if len(av) != len(bv) {
		t.Fatalf("Scan(%q): %d vs %d items", prefix, len(av), len(bv))
	}
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("Scan(%q) item %d diverged:\n  mem:  %q\n  disk: %q", prefix, i, av[i], bv[i])
		}
	}
}
