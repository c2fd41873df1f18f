package engine

import (
	"sync"

	"aim/internal/sqlparser"
)

// shapeCapacity bounds the shapes a database's template cache holds; a full
// cache starts over. A structural constant, like the planner memo's
// PreparedCapacity: an entry is a template and its column names, and the
// widest workload in the repo has about 230 shapes.
const shapeCapacity = 1024

// Entry is one entry of the template cache: a shape and, for a SELECT, its
// output column names, rendered once, and its reads (nil when it read an
// unknown table when first parsed). A nil Shape marks a Bypass digest, which
// keeps a SELECT's reads only.
type Entry struct {
	*sqlparser.Shape
	// ID is below shapeCapacity and unique among the entries the cache holds
	// at once, so a consumer can index what it keeps per template by it.
	ID    int
	cols  []string
	reads []tableReads
}

// shapeCache maps a statement digest (sqlparser.Digest.Key) to the entry the
// first parse of a statement with that digest produced. A shape depends on
// the statement's text alone, and its reads on the definitions of the tables
// it names, which never change once created, so nothing invalidates it and a
// database shares its cache with its clones.
type shapeCache struct {
	mu sync.RWMutex
	m  map[string]*Entry
}

func (c *shapeCache) get(key []byte) *Entry {
	c.mu.RLock()
	e := c.m[string(key)]
	c.mu.RUnlock()
	return e
}

// put caches e under key unless an entry is already there, and returns the
// cached one: of two sessions that parsed one digest at once, the first to
// put wins, so an ID names one entry.
func (c *shapeCache) put(key []byte, e *Entry) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.m[string(key)]; old != nil {
		return old
	}
	if c.m == nil || len(c.m) >= shapeCapacity {
		c.m = make(map[string]*Entry)
	}
	e.ID = len(c.m)
	c.m[string(key)] = e
	return e
}

// digests recycles the digest pass's buffers across statements.
var digests = sync.Pool{New: func() any { return new(sqlparser.Digest) }}
