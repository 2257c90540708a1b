package plancache

import (
	"math"
	"sync"

	"distredge/internal/strategy"
)

// DefaultCapacity bounds a Cache built with capacity <= 0.
const DefaultCapacity = 256

// Stats are the cache's monotonic counters. Hits counts exact-signature
// retrievals, Misses failed ones; WarmHits counts misses that found a
// nearest-neighbour seed and went on to warm-start a search (so a warm hit
// is always also counted as a miss); Evictions counts LRU displacements.
type Stats struct {
	Hits      uint64
	Misses    uint64
	WarmHits  uint64
	Evictions uint64
}

// entry is one cached plan on the LRU list (most recent at head).
type entry struct {
	key        string
	sig        Signature
	strat      *strategy.Strategy
	score      float64
	prev, next *entry
}

// Cache is a concurrency-safe, LRU-bounded plan cache keyed by fleet
// signature, and the planner service over it (Plan). Stored strategies are
// cloned on Put and returned by pointer on Get — callers must treat
// retrieved strategies as read-only (every consumer in this repo does:
// simulation, compilation and deployment only read them), which keeps exact
// hits allocation-free.
type Cache struct {
	capacity int

	mu         sync.Mutex
	entries    map[string]*entry  // guarded by mu
	head, tail *entry             // guarded by mu; LRU list, most recent first
	stats      Stats              // guarded by mu
	inflight   map[string]*flight // guarded by mu; Plan's single-flight table
}

// New builds a cache bounded to the given number of entries
// (DefaultCapacity when capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{capacity: capacity, entries: make(map[string]*entry), inflight: make(map[string]*flight)}
}

// Get retrieves the strategy cached under the exact signature, with its
// objective score. The hit is promoted to most-recently-used.
func (c *Cache) Get(sig Signature) (*strategy.Strategy, float64, bool) {
	key := sig.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.lookupLocked(key)
	if e == nil {
		return nil, 0, false
	}
	return e.strat, e.score, true
}

// lookupLocked finds the entry under key, counting the hit or miss and
// promoting a hit to most-recently-used. Caller holds mu.
func (c *Cache) lookupLocked(key string) *entry {
	e := c.entries[key]
	if e == nil {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	c.promoteLocked(e)
	return e
}

// Put stores (a clone of) the strategy under the signature, evicting the
// least-recently-used entry when over capacity. It returns the
// cache-resident clone, so callers can hand out the same read-only pointer
// an exact hit would return.
func (c *Cache) Put(sig Signature, s *strategy.Strategy, score float64) *strategy.Strategy {
	key := sig.Key()
	clone := s.Clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil {
		e.strat, e.score = clone, score
		c.promoteLocked(e)
		return clone
	}
	e := &entry{key: key, sig: sig, strat: clone, score: score}
	c.entries[key] = e
	c.pushFrontLocked(e)
	for len(c.entries) > c.capacity {
		lru := c.tail
		c.removeLocked(lru)
		delete(c.entries, lru.key)
		c.stats.Evictions++
	}
	return clone
}

// Nearest returns the cached entry closest to sig under Distance (only
// comparable entries — same model and objective — qualify). Ties break on
// the smaller key, so the result is deterministic regardless of insertion
// or promotion order. The chosen entry is promoted: a fleet that keeps
// seeding warm starts is worth keeping.
func (c *Cache) Nearest(sig Signature) (Signature, *strategy.Strategy, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *entry
	bestDist := math.Inf(1)
	for _, e := range c.entries {
		d := Distance(sig, e.sig)
		if d < bestDist || (d == bestDist && best != nil && e.key < best.key) {
			best, bestDist = e, d
		}
	}
	if best == nil || math.IsInf(bestDist, 1) {
		return Signature{}, nil, false
	}
	c.promoteLocked(best)
	return best.sig, best.strat, true
}

// countWarmHit records that a Nearest result actually seeded a warm start.
func (c *Cache) countWarmHit() {
	c.mu.Lock()
	c.stats.WarmHits++
	c.mu.Unlock()
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// promoteLocked moves e to the front of the LRU list. Caller holds mu.
func (c *Cache) promoteLocked(e *entry) {
	if c.head == e {
		return
	}
	c.removeLocked(e)
	c.pushFrontLocked(e)
}

// pushFrontLocked links e at the head. Caller holds mu.
func (c *Cache) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// removeLocked unlinks e from the list. Caller holds mu.
func (c *Cache) removeLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
