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

// cachedShape is one entry of the template cache: a shape and, for a SELECT,
// its output column names, rendered once, and its reads (nil when it read an
// unknown table when first parsed). A nil Shape marks a Bypass digest.
type cachedShape struct {
	*sqlparser.Shape
	cols  []string
	reads []tableReads
}

// shapeCache maps a statement digest (sqlparser.Digest.Key) to the shape the
// first parse of a statement with that digest produced. A shape depends on
// the statement's text alone, and its reads on the definitions of the tables
// it names, which never change once created, so nothing invalidates it and a
// database shares its cache with its clones.
type shapeCache struct {
	mu sync.RWMutex
	m  map[string]*cachedShape
}

func (c *shapeCache) get(key []byte) *cachedShape {
	c.mu.RLock()
	sh := c.m[string(key)]
	c.mu.RUnlock()
	return sh
}

func (c *shapeCache) put(key []byte, sh *cachedShape) {
	c.mu.Lock()
	if c.m == nil || len(c.m) >= shapeCapacity {
		c.m = make(map[string]*cachedShape)
	}
	c.m[string(key)] = sh
	c.mu.Unlock()
}

// digests recycles the digest pass's buffers across statements.
var digests = sync.Pool{New: func() any { return new(sqlparser.Digest) }}
