package costcache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutBasics(t *testing.T) {
	c := NewCache(64)
	if _, ok := c.Get("k"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("k", 42)
	v, ok := c.Get("k")
	if !ok || v.(int) != 42 {
		t.Fatalf("got %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDuplicatePutKeepsExisting(t *testing.T) {
	c := NewCache(64)
	c.Put("k", "first")
	c.Put("k", "second")
	v, _ := c.Get("k")
	if v.(string) != "first" {
		t.Fatalf("duplicate put replaced value: %v", v)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d", st.Entries)
	}
}

func TestEvictionBoundsSize(t *testing.T) {
	const capacity = 160 // 10 per shard
	c := NewCache(capacity)
	for i := 0; i < 10*capacity; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	st := c.Stats()
	if st.Entries > capacity {
		t.Fatalf("cache grew past capacity: %d > %d", st.Entries, capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
}

func TestLRUEvictsColdestFirst(t *testing.T) {
	// A single-entry-per-shard cache: inserting two keys that land on the
	// same shard must evict the older one.
	c := NewCache(shardCount) // one entry per shard
	s := c.shardFor("a")
	// Find a second key on the same shard.
	other := ""
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if c.shardFor(k) == s {
			other = k
			break
		}
	}
	if other == "" {
		t.Fatal("no colliding key found")
	}
	c.Put("a", 1)
	c.Put(other, 2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("LRU kept the older entry")
	}
	if _, ok := c.Get(other); !ok {
		t.Fatal("LRU evicted the newer entry")
	}
}

func TestGetPromotesRecency(t *testing.T) {
	// Two entries per shard: touching the older key should make the middle
	// key the eviction victim.
	c := NewCache(2 * shardCount)
	s := c.shardFor("a")
	var collide []string
	for i := 0; len(collide) < 2 && i < 20000; i++ {
		k := fmt.Sprintf("p-%d", i)
		if c.shardFor(k) == s {
			collide = append(collide, k)
		}
	}
	if len(collide) < 2 {
		t.Fatal("not enough colliding keys")
	}
	c.Put("a", 1)
	c.Put(collide[0], 2)
	c.Get("a") // promote
	c.Put(collide[1], 3)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("promoted entry was evicted")
	}
	if _, ok := c.Get(collide[0]); ok {
		t.Fatal("cold entry survived over promoted one")
	}
}

func TestInvalidateClearsEntriesKeepsCounters(t *testing.T) {
	c := NewCache(64)
	c.Put("k", 1)
	c.Get("k")
	c.Get("nope")
	before := c.Stats()
	c.Invalidate()
	after := c.Stats()
	if after.Entries != 0 {
		t.Fatalf("entries after invalidate = %d", after.Entries)
	}
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatal("invalidate reset counters")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry survived invalidation")
	}
}

func TestStatsDeltaAndHitRate(t *testing.T) {
	a := Stats{Hits: 10, Misses: 10, Evictions: 1, Entries: 5}
	b := Stats{Hits: 40, Misses: 20, Evictions: 3, Entries: 7}
	d := b.Delta(a)
	if d.Hits != 30 || d.Misses != 10 || d.Evictions != 2 || d.Entries != 7 {
		t.Fatalf("delta = %+v", d)
	}
	if hr := d.HitRate(); hr != 0.75 {
		t.Fatalf("hit rate = %v", hr)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty hit rate should be 0")
	}
}

func TestConcurrentAccessIsConsistent(t *testing.T) {
	c := NewCache(1024)
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("key-%d", i%300)
				if v, ok := c.Get(k); ok {
					// Values are a pure function of the key; a torn or
					// mismatched read means the cache handed back another
					// key's value.
					if v.(string) != "val-"+k {
						t.Errorf("key %s returned %v", k, v)
						return
					}
				} else {
					c.Put(k, "val-"+k)
				}
				if i%500 == 0 && g == 0 {
					c.Invalidate()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatal("no hits under concurrent access")
	}
	if st.Entries > 1024 {
		t.Fatalf("entries exceed capacity: %d", st.Entries)
	}
}

// versioned is a Validator: valid while its version is the current one.
type versioned struct{ at, now *int }

func (v versioned) Valid() bool { return *v.at == *v.now }

// TestStaleEntryIsAMiss pins the self-validation the planner's memo relies on:
// an entry that reports itself stale is dropped by the Get that finds it,
// counted as a miss, and the key takes a fresh value.
func TestStaleEntryIsAMiss(t *testing.T) {
	c := NewCache(64)
	now, one, two := 1, 1, 2
	c.Put("k", versioned{&one, &now})
	if _, ok := c.Get("k"); !ok {
		t.Fatal("valid entry missed")
	}
	now = 2
	if _, ok := c.Get("k"); ok {
		t.Fatal("stale entry served")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 0 {
		t.Fatalf("after the stale lookup: %+v", st)
	}
	c.Put("k", versioned{&two, &now})
	if v, ok := c.Get("k"); !ok || v.(versioned).at != &two {
		t.Fatalf("re-put after stale: %v, %v", v, ok)
	}
}
