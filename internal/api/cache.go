// Byte-budget LRU for the staged artifacts (designs, goldens, models,
// compiled formulations): the one build-once cache behind Prepare.
// The expt harness runs it with no budget (one table run keeps
// everything), dmopt-serve with a byte budget — a daemon fielding
// millions of distinct requests cannot keep everything — and cmd/dmopt
// passes a nil *Cache, which builds on every call and caches nothing.
// Every value carries an approximate byte cost, a hit moves its key to
// the front, and inserts evict from the back until the cache fits its
// budget.
//
// The build-once contract: concurrent callers of one key share a
// single build, and a build aborted by context cancellation is never
// cached, so one canceled job cannot poison a key.  Values are
// immutable once built (the compile pipeline's ownership rule), which
// is what makes eviction safe: an evicted value stays valid for every
// job still holding it and is reclaimed by the GC when the last one
// finishes.
package api

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro/internal/obs"
)

// Cache is the byte-budget LRU.  The zero value is not usable;
// construct with NewCache.
type Cache struct {
	rec    *obs.Recorder // server-lifetime metrics; may be nil
	budget int64

	mu      sync.Mutex
	used    int64
	entries map[string]*centry
	ll      *list.List // front = most recently used
}

// centry is one cache slot.  state is guarded by the entry mutex; list
// membership by the cache mutex.
type centry struct {
	key   string
	elem  *list.Element // nil until built
	bytes int64

	mu    sync.Mutex
	built bool
	val   any
	err   error
}

// NewCache returns a cache that evicts past budget bytes of live
// artifact cost; budget <= 0 disables eviction (unbounded, the expt
// harness behaviour).
func NewCache(rec *obs.Recorder, budget int64) *Cache {
	return &Cache{rec: rec, budget: budget, entries: map[string]*centry{}, ll: list.New()}
}

// GetOrBuild returns the cached value for key, building it at most once
// per residency.  The bool reports a hit (served from memory).  build
// returns the value and its approximate byte cost; a build error that
// wraps context cancellation is not cached, any other outcome —
// including a deterministic error — is.  A nil Cache builds on every
// call and caches nothing.
func (c *Cache) GetOrBuild(ctx context.Context, key string, build func(ctx context.Context) (any, int64, error)) (any, bool, error) {
	if c == nil {
		val, _, err := build(ctx)
		return val, false, err
	}
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &centry{key: key}
		c.entries[key] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.built {
		// Demand side: a hit.  Supply side: the value is reused — built
		// earlier in this residency, possibly by a caller this one was
		// just queued behind.  Every served request ticks exactly one
		// counter of each pair, so hits+misses == builds+reuses is an
		// accounting invariant the load soak asserts.
		c.touch(e)
		c.rec.Add("serve/cache_hits", 1)
		c.rec.Add("serve/cache_reuses", 1)
		return e.val, true, e.err
	}
	val, bytes, err := build(ctx)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// Aborted builds are not cached and not counted: the request was
		// not served, so neither pair advances.
		return val, false, err
	}
	e.built, e.val, e.err, e.bytes = true, val, err, bytes
	c.insert(e)
	c.rec.Add("serve/cache_misses", 1)
	c.rec.Add("serve/cache_builds", 1)
	return val, false, err
}

// touch moves a built entry to the LRU front.
func (c *Cache) touch(e *centry) {
	c.mu.Lock()
	if e.elem != nil {
		c.ll.MoveToFront(e.elem)
	}
	c.mu.Unlock()
}

// insert adds a freshly built entry and evicts from the back until the
// cache fits its budget.  The newest entry itself is never evicted, so
// a single artifact larger than the whole budget still serves its job
// (and leaves at the next insert).
func (c *Cache) insert(e *centry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The key may have been re-created after an eviction raced this
	// build; only track the entry actually registered under the key.
	if c.entries[e.key] != e {
		return
	}
	e.elem = c.ll.PushFront(e)
	c.used += e.bytes
	for c.budget > 0 && c.used > c.budget && c.ll.Len() > 1 {
		back := c.ll.Back()
		victim := back.Value.(*centry)
		c.ll.Remove(back)
		delete(c.entries, victim.key)
		c.used -= victim.bytes
		c.rec.Add("serve/cache_evictions", 1)
	}
	c.rec.Set("serve/cache_bytes", float64(c.used))
	c.rec.Set("serve/cache_entries", float64(c.ll.Len()))
}

// Len reports the number of resident (built) entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// UsedBytes reports the resident artifact cost.
func (c *Cache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}
