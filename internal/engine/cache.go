package engine

import (
	"container/list"
	"sync"
	"sync/atomic"

	"xmorph/internal/plan"
)

// guardCache is a small LRU of compiled guards keyed by (document shred
// version, shape hash, guard text). Shred versions are never reused —
// drop + re-shred assigns a fresh one — so a re-shredded document's stale
// compilations can never be served; they simply age out. The shape hash
// makes the key update-aware: an in-place Update that changes the adorned
// shape moves the hash (stale compilations age out the same way), while a
// shape-preserving update keeps every cached guard warm — no re-compile
// for edits the type system cannot observe. Checked values are immutable
// after compilation, so one entry may serve many goroutines at once.
type guardCache struct {
	mu           sync.Mutex
	cap          int
	order        *list.List // front = most recently used
	entries      map[cacheKey]*list.Element
	hits, misses atomic.Uint64
}

type cacheKey struct {
	version   uint32
	shapeHash uint64
	guard     string
}

type cacheEntry struct {
	key     cacheKey
	checked *Checked
	// verdict is the streamability classification of the compiled
	// target, computed once at compile time and served with the guard.
	verdict plan.Decision
}

// guardCacheEntries is every engine's compiled-guard cache capacity.
const guardCacheEntries = 64

// newGuardCache builds a cache holding up to capacity entries.
func newGuardCache(capacity int) *guardCache {
	return &guardCache{
		cap:     capacity,
		order:   list.New(),
		entries: map[cacheKey]*list.Element{},
	}
}

func (c *guardCache) get(version uint32, shapeHash uint64, guard string) (*Checked, plan.Decision) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[cacheKey{version, shapeHash, guard}]
	if !ok {
		c.misses.Add(1)
		metricCacheMisses.Inc()
		return nil, plan.Decision{}
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	metricCacheHits.Inc()
	ent := el.Value.(*cacheEntry)
	return ent.checked, ent.verdict
}

func (c *guardCache) put(version uint32, shapeHash uint64, guard string, checked *Checked, verdict plan.Decision) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{version, shapeHash, guard}
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		ent := el.Value.(*cacheEntry)
		ent.checked, ent.verdict = checked, verdict
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, checked: checked, verdict: verdict})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
	metricCacheEntries.Set(float64(c.order.Len()))
}

func (c *guardCache) stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}
