// Package opcache is a content-addressed cache of lowered operator
// schedules, keyed by a canonical hash of the submitted equations and the
// storage facts the lowering reads (package core derives the key).
//
// The cache exists for the shot-parallel FWI service: a survey runs many
// RunGradient shots whose operators are built from the *same* equations
// against per-shot storage, so the symbolic front-end — derivative
// expansion, CIRE, cluster lowering, schedule optimisation — should run
// once per equation set, not once per shot. Kernels are not cached: every
// operator compiles its own against its own fields. GetOrCompute has
// singleflight semantics — concurrent shots that race on a cold key block
// on one lowering instead of duplicating it — which also keeps the miss
// count deterministic (exactly one per unique key) under any worker count.
//
// Values are stored as `any`: the cache is deliberately ignorant of the
// compiler's types so it sits below package core without an import cycle.
// Entries are never evicted; a cache is scoped to one survey (or one
// process) and its schedules are small compared to field storage.
package opcache

import (
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time counter snapshot of a cache.
type Stats struct {
	// Hits counts GetOrCompute calls served from an existing entry
	// (including callers that blocked on an in-flight computation).
	Hits int64 `json:"hits"`
	// Misses counts GetOrCompute calls that ran the compute function —
	// one per unique key, thanks to singleflight.
	Misses int64 `json:"misses"`
	// Entries is the number of resident keys.
	Entries int `json:"entries"`
}

// HitRate is hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// entry is one keyed slot; ready is closed once val/err are final.
type entry struct {
	ready chan struct{}
	val   any
	err   error
}

// Cache is a concurrency-safe content-addressed store. The zero value is
// not usable; construct with New.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry

	hits   atomic.Int64
	misses atomic.Int64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{entries: map[string]*entry{}}
}

// GetOrCompute returns the value stored under key, computing it with
// compute on first use. Concurrent callers of a cold key block until the
// single in-flight computation finishes (singleflight). hit reports
// whether the value came from the cache (true for blocked waiters too);
// the computing caller sees hit == false. A failed computation is not
// cached: its error is returned to every waiter and the key is cleared so
// a later call retries.
func (c *Cache) GetOrCompute(key string, compute func() (any, error)) (val any, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, false, e.err
		}
		c.hits.Add(1)
		return e.val, true, nil
	}
	e := &entry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	c.misses.Add(1)
	e.val, e.err = compute()
	if e.err != nil {
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
	}
	close(e.ready)
	return e.val, false, e.err
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}
