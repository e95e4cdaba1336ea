package main

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netsecurelab/mtasts/internal/mtasts"
	"github.com/netsecurelab/mtasts/internal/policycache"
	"github.com/netsecurelab/mtasts/internal/scanner"
	"github.com/netsecurelab/mtasts/internal/store"
)

// Span is one timed call across a layer boundary. Key is the domain,
// job, message or store key the call served; Parent links it to the
// span that caused it (0 for none).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// Tracer keeps spans in memory; they are written out when the run ends.
type Tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []Span
	since int64 // spans starting earlier are warm-up, kept but not measured
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// mark starts the measured window.
func (t *Tracer) mark() {
	t.mu.Lock()
	t.since = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// NewID reserves a span ID, for a span whose children start before it
// ends.
func (t *Tracer) NewID() int64 { return t.next.Add(1) }

// Record stores a finished span; id 0 allocates a fresh one.
func (t *Tracer) Record(id, parent int64, name, key string, start, end time.Time) int64 {
	if id == 0 {
		id = t.NewID()
	}
	s := Span{ID: id, Parent: parent, Name: name, Key: key,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// durations returns the seconds spent in every span of that name.
func (t *Tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Start >= t.since {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// computeSelf fills every span's self time: its duration minus the part
// of its interval that child spans cover. It returns how many came out
// negative, which the interval union makes impossible unless a span
// ends before it starts.
func (t *Tracer) computeSelf() (negative int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]int{}
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range t.spans {
		p := &t.spans[i]
		var iv [][2]int64
		for _, c := range children[p.ID] {
			a, b := t.spans[c].Start, t.spans[c].End
			if a < p.Start {
				a = p.Start
			}
			if b > p.End {
				b = p.End
			}
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, curA, curB := int64(0), int64(0), int64(-1)
		for _, x := range iv {
			if x[0] > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = x[0], x[1]
			} else if x[1] > curB {
				curB = x[1]
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		p.Self = p.End - p.Start - covered
		if p.Self < 0 {
			negative++
		}
	}
	return negative
}

// selfSeconds returns the self times of every span of that name.
func (t *Tracer) selfSeconds(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Start >= t.since {
			out = append(out, float64(s.Self)/1e9)
		}
	}
	return out
}

func (t *Tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// tracedStages wraps the scanner's stage interface from outside,
// forwarding every call (ScanDomain too) and timing it.
type tracedStages struct {
	inner    scanner.StageScanner
	tr       *Tracer
	parentOf func(domain string) int64

	mu          sync.Mutex
	discoverEnd map[string]time.Time
	queueWait   []float64 // seconds from Discover end to FetchPolicy start
}

var _ scanner.StageScanner = (*tracedStages)(nil)

func newTracedStages(inner scanner.StageScanner, tr *Tracer, parentOf func(string) int64) *tracedStages {
	return &tracedStages{inner: inner, tr: tr, parentOf: parentOf, discoverEnd: map[string]time.Time{}}
}

func (s *tracedStages) ScanDomain(ctx context.Context, domain string) scanner.DomainResult {
	start := time.Now()
	r := s.inner.ScanDomain(ctx, domain)
	s.tr.Record(0, s.parentOf(domain), "scanner.domain", domain, start, time.Now())
	return r
}

func (s *tracedStages) Discover(ctx context.Context, domain string) (scanner.DomainResult, bool) {
	start := time.Now()
	r, done := s.inner.Discover(ctx, domain)
	end := time.Now()
	s.tr.Record(0, s.parentOf(domain), "scanner.discover", domain, start, end)
	if !done {
		s.mu.Lock()
		s.discoverEnd[domain] = end
		s.mu.Unlock()
	}
	return r, done
}

func (s *tracedStages) FetchPolicy(ctx context.Context, domain string) scanner.FetchOutcome {
	start := time.Now()
	s.mu.Lock()
	if t, ok := s.discoverEnd[domain]; ok {
		s.queueWait = append(s.queueWait, start.Sub(t).Seconds())
		delete(s.discoverEnd, domain)
	}
	s.mu.Unlock()
	out := s.inner.FetchPolicy(ctx, domain)
	s.tr.Record(0, s.parentOf(domain), "scanner.fetch", domain, start, time.Now())
	return out
}

func (s *tracedStages) ProbeHost(ctx context.Context, mxHost string) scanner.ProbeOutcome {
	start := time.Now()
	out := s.inner.ProbeHost(ctx, mxHost)
	s.tr.Record(0, 0, "scanner.probe", mxHost, start, time.Now())
	return out
}

func (s *tracedStages) Finalize(r *scanner.DomainResult, took time.Duration) {
	start := time.Now()
	s.inner.Finalize(r, took)
	s.tr.Record(0, s.parentOf(r.Domain), "scanner.finalize", r.Domain, start, time.Now())
}

func (s *tracedStages) resetWindow() {
	s.mu.Lock()
	s.queueWait = nil
	s.mu.Unlock()
}

func (s *tracedStages) fetchQueueWait() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.queueWait...)
}

// tracedStore wraps a store.Store, timing every call and counting the
// bytes handed to it. A campaign checkpoint is timed from its Put to
// the end of the first Sync that began after that Put returned.
type tracedStore struct {
	inner   store.Store
	tr      *Tracer
	written atomic.Int64

	mu          sync.Mutex
	pendingCk   []ckPending
	checkpoints []float64
}

type ckPending struct{ start, putEnd time.Time }

var (
	_ store.Store = (*tracedStore)(nil)
	_ store.Sizer = (*tracedStore)(nil)
)

func (s *tracedStore) Get(key string) ([]byte, bool, error) {
	start := time.Now()
	v, ok, err := s.inner.Get(key)
	s.tr.Record(0, 0, "store.get", key, start, time.Now())
	return v, ok, err
}

func (s *tracedStore) Put(key string, value []byte) error {
	start := time.Now()
	err := s.inner.Put(key, value)
	end := time.Now()
	s.tr.Record(0, 0, "store.put", key, start, end)
	s.written.Add(int64(len(key) + len(value)))
	if strings.Contains(key, "/ck/") {
		s.mu.Lock()
		s.pendingCk = append(s.pendingCk, ckPending{start, end})
		s.mu.Unlock()
	}
	return err
}

func (s *tracedStore) Batch(entries []store.Entry) error {
	start := time.Now()
	err := s.inner.Batch(entries)
	s.tr.Record(0, 0, "store.batch", "", start, time.Now())
	for _, e := range entries {
		s.written.Add(int64(len(e.Key) + len(e.Value)))
	}
	return err
}

func (s *tracedStore) Scan(prefix string, fn func(key string, value []byte) error) error {
	start := time.Now()
	err := s.inner.Scan(prefix, fn)
	s.tr.Record(0, 0, "store.scan", prefix, start, time.Now())
	return err
}

func (s *tracedStore) Sync() error {
	start := time.Now()
	err := s.inner.Sync()
	end := time.Now()
	s.tr.Record(0, 0, "store.sync", "", start, end)
	s.mu.Lock()
	kept := s.pendingCk[:0]
	for _, p := range s.pendingCk {
		if !p.putEnd.After(start) {
			s.checkpoints = append(s.checkpoints, end.Sub(p.start).Seconds())
		} else {
			kept = append(kept, p)
		}
	}
	s.pendingCk = kept
	s.mu.Unlock()
	return err
}

func (s *tracedStore) Close() error { return s.inner.Close() }

func (s *tracedStore) SizeBytes() int64 {
	if sz, ok := s.inner.(store.Sizer); ok {
		return sz.SizeBytes()
	}
	return 0
}

func (s *tracedStore) resetWindow() {
	s.written.Store(0)
	s.mu.Lock()
	s.checkpoints = nil
	s.mu.Unlock()
}

func (s *tracedStore) checkpointSeconds() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.checkpoints...)
}

// countingSessionCache counts TLS session lookups and the resumable
// sessions they found.
type countingSessionCache struct {
	inner      tls.ClientSessionCache
	gets, hits atomic.Int64
}

func (c *countingSessionCache) Get(key string) (*tls.ClientSessionState, bool) {
	cs, ok := c.inner.Get(key)
	c.gets.Add(1)
	if ok {
		c.hits.Add(1)
	}
	return cs, ok
}

func (c *countingSessionCache) Put(key string, cs *tls.ClientSessionState) { c.inner.Put(key, cs) }

// tracedTXT wraps the validator's TXT resolver; spans hang off the
// message the owning worker is sending.
type tracedTXT struct {
	inner mtasts.TXTResolver
	tr    *Tracer
	cur   *int64
}

func (r tracedTXT) ResolveTXT(ctx context.Context, name string) ([]string, error) {
	start := time.Now()
	v, err := r.inner.ResolveTXT(ctx, name)
	r.tr.Record(0, *r.cur, "resolver.txt", name, start, time.Now())
	return v, err
}

func (r tracedTXT) IsNotFound(err error) bool { return r.inner.IsNotFound(err) }

// tracedCache wraps policycache.Cache with every optional interface the
// Validator type-asserts, so wrapping does not change its behaviour.
type tracedCache struct {
	inner *policycache.Cache
	tr    *Tracer
	cur   *int64
	hits  *atomic.Int64
}

var (
	_ mtasts.PolicyStore      = tracedCache{}
	_ mtasts.StaleStore       = tracedCache{}
	_ mtasts.RefreshableStore = tracedCache{}
	_ mtasts.FetchCoalescer   = tracedCache{}
)

func (c tracedCache) Get(domain string) (mtasts.CachedPolicy, bool) {
	start := time.Now()
	p, ok := c.inner.Get(domain)
	c.tr.Record(0, *c.cur, "policycache.get", domain, start, time.Now())
	if ok {
		c.hits.Add(1)
	}
	return p, ok
}

func (c tracedCache) NeedsRefresh(domain, currentRecordID string) bool {
	return c.inner.NeedsRefresh(domain, currentRecordID)
}

func (c tracedCache) Store(domain string, p mtasts.Policy, recordID string) {
	start := time.Now()
	c.inner.Store(domain, p, recordID)
	c.tr.Record(0, *c.cur, "policycache.store", domain, start, time.Now())
}

func (c tracedCache) GetStale(domain string) (mtasts.CachedPolicy, bool) {
	start := time.Now()
	p, ok := c.inner.GetStale(domain)
	c.tr.Record(0, *c.cur, "policycache.get_stale", domain, start, time.Now())
	return p, ok
}

func (c tracedCache) ExpiringWithin(window time.Duration) []string {
	return c.inner.ExpiringWithin(window)
}

func (c tracedCache) CoalesceFetch(domain string, fetch func() (mtasts.Policy, error)) (mtasts.Policy, bool, error) {
	start := time.Now()
	p, shared, err := c.inner.CoalesceFetch(domain, func() (mtasts.Policy, error) {
		fs := time.Now()
		p, err := fetch()
		c.tr.Record(0, *c.cur, "policycache.fetch", domain, fs, time.Now())
		return p, err
	})
	c.tr.Record(0, *c.cur, "policycache.coalesce", domain, start, time.Now())
	return p, shared, err
}
