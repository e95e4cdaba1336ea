package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMemBasics(t *testing.T) {
	s := NewMem()
	testBasics(t, s)
}

func TestDiskBasics(t *testing.T) {
	s, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	testBasics(t, s)
}

// testBasics exercises the Store contract against one backend.
func testBasics(t *testing.T, s Store) {
	t.Helper()
	if _, ok, err := s.Get("missing"); err != nil || ok {
		t.Fatalf("Get(missing) = ok=%v err=%v, want absent", ok, err)
	}
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("a")
	if err != nil || !ok || string(v) != "2" {
		t.Fatalf("Get(a) = %q ok=%v err=%v, want last write", v, ok, err)
	}
	if err := s.Batch([]Entry{{"b", []byte("x")}, {"c", nil}, {"aa", []byte("y")}}); err != nil {
		t.Fatal(err)
	}
	v, ok, err = s.Get("c")
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("Get(c) = %q ok=%v err=%v, want empty value present", v, ok, err)
	}

	var got []string
	if err := s.Scan("a", func(k string, v []byte) error {
		got = append(got, k+"="+string(v))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := "a=2,aa=y"
	if strings.Join(got, ",") != want {
		t.Fatalf("Scan(a) = %v, want %s", got, want)
	}

	// ErrStop ends the scan cleanly after the first item.
	n := 0
	if err := s.Scan("", func(string, []byte) error {
		n++
		return ErrStop
	}); err != nil {
		t.Fatalf("Scan with ErrStop: %v", err)
	}
	if n != 1 {
		t.Fatalf("ErrStop visited %d items, want 1", n)
	}

	if n, err := Len(s, ""); err != nil || n != 4 {
		t.Fatalf("Len = %d err=%v, want 4", n, err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if sz, ok := s.(Sizer); !ok {
		t.Fatal("backend does not implement Sizer")
	} else if sz.SizeBytes() <= 0 {
		t.Fatalf("SizeBytes = %d, want > 0", sz.SizeBytes())
	}
}

func TestDiskReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite a few so replay must honor last-write-wins.
	if err := s.Put("k005", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, err := Len(s2, ""); err != nil || n != 100 {
		t.Fatalf("Len after reopen = %d err=%v, want 100", n, err)
	}
	v, ok, err := s2.Get("k005")
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("Get(k005) after reopen = %q ok=%v err=%v, want overwrite to win", v, ok, err)
	}
}

func TestDiskRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SegmentBytes = 256 // force frequent rotation
	for i := 0; i < 200; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i%50), []byte(strings.Repeat("x", 40))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Segments() < 3 {
		t.Fatalf("Segments = %d, want several after 200 writes at 256-byte threshold", s.Segments())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reads spanning old segments must survive a reopen.
	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n, err := Len(s2, ""); err != nil || n != 50 {
		t.Fatalf("Len after rotated reopen = %d err=%v, want 50", n, err)
	}
}

func TestDiskTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("good", []byte("value")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a partial JSON line with no newline.
	seg := filepath.Join(dir, "seg-000001.jsonl")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"k":"torn","v":"QUJ`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	defer s2.Close()
	if _, ok, err := s2.Get("torn"); err != nil || ok {
		t.Fatalf("torn record visible: ok=%v err=%v", ok, err)
	}
	v, ok, err := s2.Get("good")
	if err != nil || !ok || string(v) != "value" {
		t.Fatalf("Get(good) after truncation = %q ok=%v err=%v", v, ok, err)
	}
	// The torn bytes must actually be gone so the next append is clean.
	if err := s2.Put("after", []byte("crash")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if n, err := Len(s3, ""); err != nil || n != 2 {
		t.Fatalf("Len after crash+append+reopen = %d err=%v, want 2", n, err)
	}
}

func TestDiskMidLogCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SegmentBytes = 64
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte(strings.Repeat("y", 30))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Segments() < 2 {
		t.Fatalf("want multiple segments, got %d", s.Segments())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Garbage in a *retired* segment is corruption, not a torn tail.
	seg := filepath.Join(dir, "seg-000001.jsonl")
	if err := os.WriteFile(seg, []byte("not json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s2, err := OpenDisk(dir); err == nil {
		s2.Close()
		t.Fatal("OpenDisk accepted a corrupt retired segment")
	}
}

func TestDiskEmptyKeyRejected(t *testing.T) {
	s, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("", []byte("v")); err == nil {
		t.Fatal("Put with empty key succeeded")
	}
}

func TestDiskBinaryValuesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 256)
	for i := range raw {
		raw[i] = byte(i)
	}
	if err := s.Put("bin", raw); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, ok, err := s2.Get("bin")
	if err != nil || !ok || string(v) != string(raw) {
		t.Fatalf("binary value mangled: ok=%v err=%v len=%d", ok, err, len(v))
	}
}

// TestDiskCompactionFailureKeepsStore makes compaction fail before it
// renames anything (its temp path is a directory) and requires the
// store to stay usable and lose nothing.
func TestDiskCompactionFailureKeepsStore(t *testing.T) {
	setFloor(t, 64)
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put("k", []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, compactTemp), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err == nil {
		t.Fatal("Sync reported no error from a failed compaction")
	}
	if err := s.Put("k", []byte("last")); err != nil {
		t.Fatalf("Put after a failed compaction: %v", err)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close reported no error from a failed compaction")
	}
	s, err = OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if v, ok, err := s.Get("k"); err != nil || !ok || string(v) != "last" {
		t.Fatalf("Get(k) = %q ok=%v err=%v, want last", v, ok, err)
	}
}

// TestDiskCompactionBoundsSegments overwrites a small key set many
// times and requires Close to leave only the live records, split at the
// rotation threshold into segments numbered above the old ones.
func TestDiskCompactionBoundsSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.SegmentBytes = 512
	mem := NewMem()
	for i := 0; i < 400; i++ {
		k, v := fmt.Sprintf("k%02d", i%40), []byte(strings.Repeat("z", i%30))
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		if err := mem.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	oldTop := s.active
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), segPrefix+"%d"+segSuffix, &n); err != nil || n <= oldTop {
			t.Fatalf("after compaction %s remains (old segments end at %d)", e.Name(), oldTop)
		}
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 512+128 {
			t.Fatalf("%s holds %d bytes, past the 512-byte threshold plus one record", e.Name(), fi.Size())
		}
		onDisk += fi.Size()
	}
	if len(entries) < 2 {
		t.Fatalf("compaction wrote %d segments, want the output split at the threshold", len(entries))
	}

	s, err = OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.dead != 0 || s.SizeBytes() != onDisk {
		t.Fatalf("reopened store: %d superseded bytes, size %d; want 0 and %d", s.dead, s.SizeBytes(), onDisk)
	}
	compareScans(t, mem, s, "")
}
