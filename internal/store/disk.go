package store

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// DefaultSegmentBytes is the rotation threshold for log segments. Small
// enough that a long campaign spreads over many files (bounded loss
// surface, easy archival), large enough that the segment count stays in
// the hundreds at paper scale.
const DefaultSegmentBytes = 64 << 20

// segPrefix/segSuffix name log segments: seg-000001.jsonl, ...
const (
	segPrefix = "seg-"
	segSuffix = ".jsonl"
)

// compactTemp is the file compaction writes before renaming it into
// place as a segment. It does not match seg-*.jsonl, so a copy left by
// a crash is never replayed; Open deletes it.
const compactTemp = "compact.tmp"

// compactFloor is the superseded-byte count Sync waits for before it
// compacts, so a small store does not rewrite itself on every
// overwrite. Close compacts regardless of it. A variable so tests can
// lower it.
var compactFloor int64 = 1 << 20

// compactStep, when non-nil, is called after each durable step of a
// compaction: the crash drill abandons the store there.
var compactStep func(step string)

// line is the JSONL wire form of one log record. Values are base64 so
// arbitrary bytes survive the JSON string round trip byte-exactly.
type line struct {
	K string `json:"k"`
	V string `json:"v"`
}

// ref locates a key's newest record in the log.
type ref struct {
	seg int   // segment number
	off int64 // byte offset of the record's line
	ln  int32 // line length including the trailing newline
}

// Disk is the append-only on-disk backend: numbered JSONL segments in
// one directory plus an in-memory key index rebuilt by replaying the
// segments on Open. Writes append to the active (highest-numbered)
// segment and rotate at SegmentBytes; Sync flushes and fsyncs the
// active segment. A torn final line — the only damage a crash can
// inflict on an append — is detected and truncated on Open.
//
// Once superseded records outweigh live ones, the store compacts: it
// copies the live records into new segments and deletes the old ones.
// Close compacts on that rule alone; Sync also waits for the
// superseded bytes to pass compactFloor. Restart cost and disk use
// then follow the live keys, not the write history.
type Disk struct {
	// SegmentBytes is the rotation threshold (DefaultSegmentBytes when
	// zero); set before the first Put.
	SegmentBytes int64

	mu      sync.Mutex
	dir     string
	index   map[string]ref
	files   map[int]*os.File // open segment handles, including the active one
	active  int              // active segment number
	size    int64            // bytes across all segments
	dead    int64            // bytes of superseded records
	actSize int64            // bytes in the active segment
	w       *bufio.Writer    // buffers appends to the active segment
	dirty   bool             // w holds unflushed bytes
	failed  error            // a compaction failed after its first rename
	closed  bool
}

// OpenDisk opens (creating if needed) the store rooted at dir and
// replays every segment to rebuild the key index. A torn trailing line
// in the final segment is truncated; torn data anywhere else is
// reported as corruption.
func OpenDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	s := &Disk{
		dir:   dir,
		index: make(map[string]ref),
		files: make(map[int]*os.File),
	}
	if err := s.open(); err != nil {
		if cerr := s.closeFiles(); cerr != nil {
			err = fmt.Errorf("%w (cleanup: %v)", err, cerr)
		}
		return nil, err
	}
	return s, nil
}

// open replays every existing segment into the index and positions the
// writer at the end of the newest one. A compaction output that was
// never renamed into place is deleted first.
func (s *Disk) open() error {
	if err := os.Remove(filepath.Join(s.dir, compactTemp)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: remove leftover %s: %w", compactTemp, err)
	}
	segs, err := s.listSegments()
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		segs = []int{1}
	}
	for i, n := range segs {
		f, err := os.OpenFile(s.segPath(n), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return fmt.Errorf("store: open segment %d: %w", n, err)
		}
		s.files[n] = f
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		valid, err := s.replay(f, n, fi.Size())
		if err != nil {
			return err
		}
		if valid < fi.Size() {
			if i != len(segs)-1 {
				return fmt.Errorf("store: segment %d corrupt at offset %d (not the active segment)", n, valid)
			}
			// Crash tore the final append; drop the partial line.
			if err := f.Truncate(valid); err != nil {
				return fmt.Errorf("store: truncate torn segment %d: %w", n, err)
			}
		}
		s.size += valid
		if i == len(segs)-1 {
			s.active = n
			s.actSize = valid
			if _, err := f.Seek(valid, 0); err != nil {
				return err
			}
			s.w = bufio.NewWriter(f)
		}
	}
	return nil
}

// closeFiles closes every open segment handle, keeping the first error.
func (s *Disk) closeFiles() error {
	var err error
	for _, f := range s.files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// listSegments returns the existing segment numbers in ascending order.
func (s *Disk) listSegments() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("store: alien file %s in %s", name, s.dir)
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

func (s *Disk) segPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%06d%s", segPrefix, n, segSuffix))
}

// replay scans one segment from the start, indexing every well-formed
// line (later lines win), and returns the byte length of the valid
// prefix. The read buffer is sized to the segment, up to 1 MiB, so a
// compacted store's small segments open without a large allocation.
func (s *Disk) replay(f *os.File, seg int, size int64) (int64, error) {
	if _, err := f.Seek(0, 0); err != nil {
		return 0, err
	}
	r := bufio.NewReaderSize(f, int(min(size, 1<<20)))
	var off int64
	for {
		raw, err := r.ReadBytes('\n')
		if err != nil {
			// EOF with a partial line (no trailing \n) is a torn write;
			// the caller truncates. EOF with no bytes is a clean end.
			return off, nil
		}
		var l line
		if jsonErr := json.Unmarshal(raw, &l); jsonErr != nil || l.K == "" {
			return off, nil
		}
		if old, ok := s.index[l.K]; ok {
			s.dead += int64(old.ln)
		}
		s.index[l.K] = ref{seg: seg, off: off, ln: int32(len(raw))}
		off += int64(len(raw))
	}
}

// Get implements Store.
func (s *Disk) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rf, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	v, err := s.readValue(rf)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// readValue reads and decodes one indexed record; the caller holds mu.
func (s *Disk) readValue(rf ref) ([]byte, error) {
	buf, err := s.readLine(rf, nil)
	if err != nil {
		return nil, err
	}
	var l line
	if err := json.Unmarshal(buf, &l); err != nil {
		return nil, fmt.Errorf("store: decode segment %d @%d: %w", rf.seg, rf.off, err)
	}
	return base64.StdEncoding.DecodeString(l.V)
}

// readLine reads one indexed record's raw line, newline included, into
// buf (grown as needed); the caller holds mu.
func (s *Disk) readLine(rf ref, buf []byte) ([]byte, error) {
	if rf.seg == s.active && s.dirty {
		if err := s.w.Flush(); err != nil {
			return nil, err
		}
		s.dirty = false
	}
	f := s.files[rf.seg]
	if f == nil {
		return nil, fmt.Errorf("store: segment %d vanished", rf.seg)
	}
	buf = slices.Grow(buf[:0], int(rf.ln))[:rf.ln]
	if _, err := f.ReadAt(buf, rf.off); err != nil {
		return nil, fmt.Errorf("store: read segment %d @%d: %w", rf.seg, rf.off, err)
	}
	return buf, nil
}

// Put implements Store.
func (s *Disk) Put(key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.append(key, value)
}

// Batch implements Store.
func (s *Disk) Batch(entries []Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		if err := s.append(e.Key, e.Value); err != nil {
			return err
		}
	}
	return nil
}

// append encodes and appends one record to the active segment, rotating
// first when full; the caller holds mu.
func (s *Disk) append(key string, value []byte) error {
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	if s.failed != nil {
		return s.failed
	}
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	if s.actSize >= s.segmentBytes() {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(line{K: key, V: base64.StdEncoding.EncodeToString(value)}); err != nil {
		return err
	}
	raw := buf.Bytes() // Encode appends the newline
	if _, err := s.w.Write(raw); err != nil {
		return err
	}
	s.dirty = true
	if old, ok := s.index[key]; ok {
		s.dead += int64(old.ln)
	}
	s.index[key] = ref{seg: s.active, off: s.actSize, ln: int32(len(raw))}
	s.actSize += int64(len(raw))
	s.size += int64(len(raw))
	return nil
}

// segmentBytes is the effective rotation threshold.
func (s *Disk) segmentBytes() int64 {
	if s.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return s.SegmentBytes
}

// rotate fsyncs and retires the active segment and starts the next one;
// the caller holds mu.
func (s *Disk) rotate() error {
	if err := s.syncActive(); err != nil {
		return err
	}
	next := s.active + 1
	f, err := os.OpenFile(s.segPath(next), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: rotate to segment %d: %w", next, err)
	}
	if err := s.syncDir(); err != nil {
		if cerr := f.Close(); cerr != nil {
			err = fmt.Errorf("%w (and closing new segment: %v)", err, cerr)
		}
		return err
	}
	s.files[next] = f
	s.active = next
	s.actSize = 0
	s.w = bufio.NewWriter(f)
	return nil
}

// syncActive flushes the write buffer and fsyncs the active segment;
// the caller holds mu.
func (s *Disk) syncActive() error {
	if s.w != nil {
		if err := s.w.Flush(); err != nil {
			return err
		}
		s.dirty = false
	}
	if f := s.files[s.active]; f != nil {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs the store directory so segment creation is durable.
func (s *Disk) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Scan implements Store: ascending key order over a snapshot of the
// index taken under the lock, then lock-free-per-item reads under it.
func (s *Disk) Scan(prefix string, fn func(key string, value []byte) error) error {
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	s.mu.Unlock()
	for _, k := range keys {
		s.mu.Lock()
		rf, ok := s.index[k]
		var (
			v   []byte
			err error
		)
		if ok {
			v, err = s.readValue(rf)
		}
		s.mu.Unlock()
		if !ok {
			continue
		}
		if err != nil {
			return err
		}
		if err := fn(k, v); err != nil {
			if err == ErrStop {
				return nil
			}
			return err
		}
	}
	return nil
}

// Sync implements Store: flush + fsync of the active segment, then a
// compaction once superseded bytes outweigh live ones and pass
// compactFloor.
func (s *Disk) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.dir)
	}
	if s.failed != nil {
		return s.failed
	}
	if err := s.syncActive(); err != nil {
		return err
	}
	if s.dead >= compactFloor && s.dead > s.size-s.dead {
		return s.compact()
	}
	return nil
}

// Close implements Store: sync, compact if superseded bytes outweigh
// live ones, then close every segment handle.
func (s *Disk) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.failed
	if err == nil {
		err = s.syncActive()
	}
	if err == nil && s.dead > s.size-s.dead {
		err = s.compact()
	}
	if cerr := s.closeFiles(); err == nil {
		err = cerr
	}
	s.closed = true
	return err
}

// compact rewrites every live record, in key order, into new segments
// numbered above every existing one, then deletes the old segments;
// the caller holds mu and has synced the active segment. Every step
// leaves a directory that Open recovers to the same contents:
//
//  1. Each output is written to compactTemp and fsynced. Until it is
//     renamed, Open deletes it and replays the old segments.
//  2. The output is renamed to the next segment number. It holds the
//     current value of each key it covers and sorts after every old
//     segment, so replay lets it win whether or not the rename, or the
//     outputs after it, survive a crash.
//  3. The directory is fsynced, so every rename is durable before any
//     old segment goes.
//  4. The old segments are deleted and the directory fsynced again.
//
// A failure before the first rename leaves the store as it was. One
// after it fails the store: appends to the old active segment would
// sort below the new segments and lose to them on replay, so writes
// are refused until the store is reopened.
func (s *Disk) compact() error {
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	old := make([]int, 0, len(s.files))
	for n := range s.files {
		old = append(old, n)
	}
	sort.Ints(old)

	tmpPath := filepath.Join(s.dir, compactTemp)
	index := make(map[string]ref, len(keys))
	var (
		f        *os.File
		w        *bufio.Writer
		seg      = s.active
		segSize  int64
		total    int64
		renamed  bool
		buf      []byte
		segLimit = s.segmentBytes()
	)
	create := func() error {
		var err error
		f, err = os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		w = bufio.NewWriter(f)
		seg++
		segSize = 0
		return nil
	}
	// seal makes the current output durable and renames it into place.
	seal := func() error {
		if err := w.Flush(); err != nil {
			return err
		}
		reportStep("write")
		if err := f.Sync(); err != nil {
			return err
		}
		reportStep("fsync")
		if err := os.Rename(tmpPath, s.segPath(seg)); err != nil {
			return err
		}
		renamed = true
		s.files[seg] = f
		f = nil
		reportStep("rename")
		return nil
	}
	// put copies one live record into the current output, moving on to
	// the next output once this one reaches the rotation threshold.
	put := func(k string) error {
		if segSize >= segLimit {
			if err := seal(); err != nil {
				return err
			}
			if err := create(); err != nil {
				return err
			}
		}
		var err error
		if buf, err = s.readLine(s.index[k], buf); err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		index[k] = ref{seg: seg, off: segSize, ln: int32(len(buf))}
		segSize += int64(len(buf))
		total += int64(len(buf))
		return nil
	}
	err := create()
	for i := 0; err == nil && i < len(keys); i++ {
		err = put(keys[i])
	}
	if err == nil {
		err = seal()
	}
	if err == nil {
		err = s.syncDir()
	}
	if err != nil {
		if f != nil {
			err = errors.Join(err, f.Close(), os.Remove(tmpPath))
		}
		return s.compactFailed(err, renamed)
	}
	reportStep("syncdir")

	s.index = index
	s.active, s.actSize = seg, segSize
	s.size, s.dead = total, 0
	s.w = bufio.NewWriter(s.files[seg])
	for _, n := range old {
		f := s.files[n]
		delete(s.files, n)
		if err = errors.Join(err, f.Close(), os.Remove(s.segPath(n))); err == nil {
			reportStep("remove")
		}
	}
	if err == nil {
		err = s.syncDir()
	}
	if err != nil {
		return s.compactFailed(err, true)
	}
	reportStep("syncdir")
	return nil
}

// compactFailed wraps a compaction error and, once an output has been
// renamed into place, fails the store.
func (s *Disk) compactFailed(err error, renamed bool) error {
	err = fmt.Errorf("store: compact %s: %w", s.dir, err)
	if renamed {
		s.failed = fmt.Errorf("%w; reopen the store to recover", err)
		return s.failed
	}
	return err
}

// reportStep reports a finished compaction step to compactStep.
func reportStep(name string) {
	if compactStep != nil {
		compactStep(name)
	}
}

// SizeBytes implements Sizer: total bytes across all log segments.
func (s *Disk) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Segments reports how many log segments the store currently spans
// (status displays).
func (s *Disk) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}
