package mtasts

import (
	"sync"
	"time"
)

// CachedPolicy is a policy held by a sending MTA together with the record
// id it was fetched under and its expiry.
type CachedPolicy struct {
	Policy    Policy
	RecordID  string
	FetchedAt time.Time
	// Expires is FetchedAt + max_age.
	Expires time.Time
}

// Fresh reports whether the entry is still within its max_age at t.
func (c CachedPolicy) Fresh(t time.Time) bool { return t.Before(c.Expires) }

// DefaultStaleWindow bounds how long an expired entry is retained after
// max_age elapses. Retention exists so the background refresher can still
// find an entry that expired between its ticks, and so a sender can keep
// enforcing an old policy when the refetch fails (RFC 8461 §5.1 warns
// that losing the cached policy reopens the TLS-fallback downgrade
// window). Expired entries are never served as fresh — only GetStale
// returns them, and only inside this window.
const DefaultStaleWindow = 24 * time.Hour

// PolicyCache is the sender-side policy store of RFC 8461 §5: policies are
// trusted on first use and served from cache until max_age elapses or the
// record id changes. It is safe for concurrent use. A nil *PolicyCache is
// a valid, always-empty cache: every lookup misses, Store and Invalidate
// do nothing, and Len is 0 — so a nil pointer stored in a Validator's
// PolicyStore interface behaves like no cache rather than panicking.
type PolicyCache struct {
	mu      sync.Mutex
	entries map[string]CachedPolicy // key: policy domain
	max     int

	// StaleWindow overrides DefaultStaleWindow when positive: how long an
	// expired entry stays visible to GetStale and ExpiringWithin before it
	// is dropped for good.
	StaleWindow time.Duration

	// Now is replaceable for tests; nil means time.Now.
	Now func() time.Time
}

// NewPolicyCache returns a cache bounded to max domains (minimum 1).
func NewPolicyCache(max int) *PolicyCache {
	if max < 1 {
		max = 1
	}
	return &PolicyCache{entries: make(map[string]CachedPolicy), max: max}
}

func (pc *PolicyCache) now() time.Time {
	if pc.Now != nil {
		return pc.Now()
	}
	return time.Now()
}

func (pc *PolicyCache) staleWindow() time.Duration {
	if pc.StaleWindow > 0 {
		return pc.StaleWindow
	}
	return DefaultStaleWindow
}

// Get returns the cached policy for domain if present and fresh. An
// expired entry is a miss, but it is retained for the stale window (see
// GetStale) rather than evicted, so a failed refetch cannot destroy it.
func (pc *PolicyCache) Get(domain string) (CachedPolicy, bool) {
	if pc == nil {
		return CachedPolicy{}, false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[domain]
	if !ok {
		return CachedPolicy{}, false
	}
	if now := pc.now(); !e.Fresh(now) {
		if now.Sub(e.Expires) > pc.staleWindow() {
			delete(pc.entries, domain)
		}
		return CachedPolicy{}, false
	}
	return e, true
}

// GetStale returns the cached policy for domain if present and not yet
// expired beyond the stale window — the fallback a sender uses when a
// refetch of an expired policy fails, so delivery keeps enforcing the old
// policy instead of downgrading to unvalidated TLS.
func (pc *PolicyCache) GetStale(domain string) (CachedPolicy, bool) {
	if pc == nil {
		return CachedPolicy{}, false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e, ok := pc.entries[domain]
	if !ok {
		return CachedPolicy{}, false
	}
	if now := pc.now(); !e.Fresh(now) && now.Sub(e.Expires) > pc.staleWindow() {
		delete(pc.entries, domain)
		return CachedPolicy{}, false
	}
	return e, true
}

// NeedsRefresh implements the record-id comparison of RFC 8461 §4.2: a
// cached policy must be refetched when the current record id differs from
// the one it was fetched under, even if max_age has not elapsed.
func (pc *PolicyCache) NeedsRefresh(domain, currentRecordID string) bool {
	e, ok := pc.Get(domain)
	if !ok {
		return true
	}
	return e.RecordID != currentRecordID
}

// Store caches a freshly fetched policy under the record id it was
// discovered with. A zero or negative max_age is not cached.
func (pc *PolicyCache) Store(domain string, p Policy, recordID string) {
	if pc == nil || p.MaxAge <= 0 {
		return
	}
	now := pc.now()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if _, exists := pc.entries[domain]; !exists && len(pc.entries) >= pc.max {
		pc.evictOldestLocked()
	}
	pc.entries[domain] = CachedPolicy{
		Policy:    p,
		RecordID:  recordID,
		FetchedAt: now,
		Expires:   now.Add(time.Duration(p.MaxAge) * time.Second),
	}
}

// evictOldestLocked removes the entry with the earliest expiry.
func (pc *PolicyCache) evictOldestLocked() {
	var oldestKey string
	var oldest time.Time
	first := true
	for k, e := range pc.entries {
		if first || e.Expires.Before(oldest) {
			oldestKey, oldest, first = k, e.Expires, false
		}
	}
	if oldestKey != "" {
		delete(pc.entries, oldestKey)
	}
}

// Invalidate drops the entry for domain.
func (pc *PolicyCache) Invalidate(domain string) {
	if pc == nil {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	delete(pc.entries, domain)
}

// Domains returns the policy domains currently cached (order unspecified).
func (pc *PolicyCache) Domains() []string {
	if pc == nil {
		return nil
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	out := make([]string, 0, len(pc.entries))
	for d := range pc.entries {
		out = append(out, d)
	}
	return out
}

// ExpiringWithin returns the domains whose cached policies expire within
// the window — the population a proactive refresher (RFC 8461 §3.3 "fetch
// the policy file at regular intervals") should revalidate first. The
// deadline is inclusive, and entries that already expired are included
// while they remain inside the stale window: an entry that lapsed between
// refresher ticks must still be revalidated, not silently abandoned.
func (pc *PolicyCache) ExpiringWithin(window time.Duration) []string {
	if pc == nil {
		return nil
	}
	now := pc.now()
	deadline := now.Add(window)
	oldest := now.Add(-pc.staleWindow())
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var out []string
	for d, e := range pc.entries {
		if !e.Expires.After(deadline) && !e.Expires.Before(oldest) {
			out = append(out, d)
		}
	}
	return out
}

// Len returns the number of cached (possibly stale) entries.
func (pc *PolicyCache) Len() int {
	if pc == nil {
		return 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}
