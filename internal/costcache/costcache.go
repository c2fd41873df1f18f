// Package costcache is the sharded, bounded LRU behind the optimizer's two
// memos: what-if estimates per (query, relevant index configuration)
// (optimizer.Coster) and the parameter-independent half of planning per
// normalized template (the optimizer's template memo). It is a leaf package so the
// optimizer can hold both.
//
// Cached values are immutable and shared between goroutines.
package costcache

import (
	"container/list"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"aim/internal/obs"
)

const (
	// DefaultCapacity bounds the total number of cached estimates per DB.
	DefaultCapacity = 32768
	shardCount      = 16
)

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// Entries is the current number of cached estimates (absolute, not a
	// counter).
	Entries int64
}

// Delta returns the counter movement since prev; Entries stays absolute.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Hits:      s.Hits - prev.Hits,
		Misses:    s.Misses - prev.Misses,
		Evictions: s.Evictions - prev.Evictions,
		Entries:   s.Entries,
	}
}

// HitRate returns hits / (hits + misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a sharded, bounded LRU mapping string keys to immutable values.
// All methods are safe for concurrent use.
type Cache struct {
	hits      int64
	misses    int64
	evictions int64
	perShard  int
	shards    [shardCount]shard

	// Live observability handles (nil when no registry is attached). The
	// counters mirror the per-run Stats deltas continuously, and mEntries
	// tracks the resident entry count as a gauge — operators watching the
	// registry see cache behaviour between advisor runs, not just
	// recommendations' per-run deltas. Several caches (production DB plus
	// shadow clones) attached to one registry share the same handles, so
	// the registry reports fleet-wide totals.
	mHits      *obs.Counter
	mMisses    *obs.Counter
	mEvictions *obs.Counter
	mEntries   *obs.Gauge
}

// SetObs attaches (or with a nil registry, detaches) live cache metrics:
// <prefix>{hits,misses,evictions} counters and the <prefix>entries gauge
// ("costcache.", "optimizer.prepared_"). Call before concurrent use; existing
// residency is folded into the entries gauge at attach time.
func (c *Cache) SetObs(r *obs.Registry, prefix string) {
	if r == nil {
		c.mHits, c.mMisses, c.mEvictions, c.mEntries = nil, nil, nil, nil
		return
	}
	c.mHits = r.Counter(prefix + "hits")
	c.mMisses = r.Counter(prefix + "misses")
	c.mEvictions = r.Counter(prefix + "evictions")
	c.mEntries = r.Gauge(prefix + "entries")
	c.mEntries.Add(c.Stats().Entries)
}

// Validator is implemented by values that can go stale on their own (a
// prepared plan holds the catalog version it was built at). Get drops an
// entry whose Valid reports false and counts a miss, so nothing has to
// remember to invalidate it.
type Validator interface{ Valid() bool }

type shard struct {
	mu    sync.Mutex
	lru   *list.List // front = most recently used
	byKey map[string]*list.Element
}

type entry struct {
	key string
	val any
}

// NewCache returns a cache bounded to roughly capacity entries (distributed
// over the shards); capacity <= 0 selects DefaultCapacity.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := (capacity + shardCount - 1) / shardCount
	if per < 1 {
		per = 1
	}
	c := &Cache{perShard: per}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].byKey = map[string]*list.Element{}
	}
	return c
}

func (c *Cache) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%shardCount]
}

// Get returns the cached value for key and promotes it to most recently
// used. A Validator that reports false is removed and missed.
func (c *Cache) Get(key string) (any, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	el, ok := s.byKey[key]
	var val any
	if ok {
		s.lru.MoveToFront(el)
		val = el.Value.(*entry).val
	}
	s.mu.Unlock()
	if v, self := val.(Validator); self && !v.Valid() {
		s.mu.Lock()
		if s.byKey[key] == el {
			s.lru.Remove(el)
			delete(s.byKey, key)
			c.mEntries.Add(-1)
		}
		s.mu.Unlock()
		ok = false
	}
	if ok {
		atomic.AddInt64(&c.hits, 1)
		c.mHits.Inc()
		return val, true
	}
	atomic.AddInt64(&c.misses, 1)
	c.mMisses.Inc()
	return nil, false
}

// Put inserts a value, evicting the shard's least recently used entry when
// full. Estimates are deterministic functions of their key, so a concurrent
// duplicate insert keeps the existing entry.
func (c *Cache) Put(key string, val any) {
	s := c.shardFor(key)
	var evicted int64
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.byKey[key] = s.lru.PushFront(&entry{key: key, val: val})
	for s.lru.Len() > c.perShard {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.byKey, back.Value.(*entry).key)
		evicted++
	}
	s.mu.Unlock()
	c.mEntries.Add(1 - evicted)
	if evicted > 0 {
		atomic.AddInt64(&c.evictions, evicted)
		c.mEvictions.Add(evicted)
	}
}

// Invalidate drops every entry (statistics or schema changed underneath the
// estimates). Counters are preserved.
func (c *Cache) Invalidate() {
	var removed int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		removed += int64(s.lru.Len())
		s.lru.Init()
		s.byKey = map[string]*list.Element{}
		s.mu.Unlock()
	}
	c.mEntries.Add(-removed)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	out := Stats{
		Hits:      atomic.LoadInt64(&c.hits),
		Misses:    atomic.LoadInt64(&c.misses),
		Evictions: atomic.LoadInt64(&c.evictions),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Entries += int64(s.lru.Len())
		s.mu.Unlock()
	}
	return out
}
