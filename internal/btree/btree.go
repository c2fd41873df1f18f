// Package btree implements an in-memory copy-on-write B+tree over []byte
// keys with bytewise ordering, typed by its values. It backs clustered tables
// (Tree[sqltypes.Row]: rows unboxed in the leaves) and secondary indexes
// (Tree[struct{}]: an entry is its key; a zero-size value takes no memory).
//
// The tree is persistent in the functional-data-structure sense: Clone is an
// O(1) root-pointer copy, after which both handles share the entire node
// graph. Writers path-copy from root to leaf — every node carries the epoch
// that created it, and a handle may mutate a node in place only when the
// node's epoch equals the handle's current epoch (the handle created the
// node since its last Clone). Clone hands *both* handles fresh epochs from a
// clock shared across the clone family, so neither side can touch a node the
// other can reach: readers traversing a snapshot root see a frozen,
// byte-stable image no matter what DML runs against live handles, with no
// locking on either side. Clone itself must be serialized with writers to
// the same handle (it reassigns the handle's epoch); everything after the
// clone — snapshot reads concurrent with live writes — is race-free.
//
// Iterators walk leaves through a per-iterator descent stack. (The previous
// implementation chained leaves with next/prev pointers; a split would have
// to relink shared siblings in place, which is exactly the cross-snapshot
// mutation copy-on-write forbids.) The tree still exposes the page-level
// accounting (leaf count, height, leaves walked) that the storage layer uses
// to model I/O cost: a range scan touching k entries across p leaves costs p
// page reads plus one root-to-leaf descent.
package btree

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"
	"unsafe"
)

// degree is the maximum number of keys per node. 64 keeps nodes around the
// size of a small database page for typical key lengths.
const degree = 64

type leaf[V any] struct {
	epoch uint64
	keyBlock
	vals []V
}

type inner[V any] struct {
	epoch uint64
	// key i is the smallest key reachable under children[i+1].
	keyBlock
	children []node
}

// node is a *leaf[V] or an *inner[V] of one tree's value type.
type node interface{ isNode() }

func (*leaf[V]) isNode()  {}
func (*inner[V]) isNode() {}

// epochClock allocates write epochs for one clone family. It is shared by
// every Tree handle descended from the same New/BulkLoad call, and advanced
// atomically so concurrent clones of sibling trees never collide.
type epochClock struct{ n atomic.Uint64 }

func (c *epochClock) next() uint64 { return c.n.Add(1) }

// cowCopies counts nodes path-copied by writers across every tree in the
// process — the feed for the storage.cow_node_copies metric. One atomic add
// per copied node; copies happen at most O(height) per mutation and only
// when the mutated path is shared with a snapshot.
var cowCopies atomic.Int64

// COWNodeCopies returns the process-wide count of copy-on-write node copies.
func COWNodeCopies() int64 { return cowCopies.Load() }

// Tree is an in-memory copy-on-write B+tree handle. The zero value is not
// usable; call New, BulkLoad, or Clone an existing handle.
//
// A Tree is single-writer: mutations and Clone calls on the same handle must
// be serialized by the caller. Distinct handles of the same family (a live
// tree and its snapshots) are fully independent — reads on one may run
// concurrently with writes on another.
type Tree[V any] struct {
	root   node
	size   int
	height int
	leaves int
	// epoch is the write epoch of this handle: nodes tagged with it were
	// created by this handle since its last Clone and may be mutated in
	// place; any other node is shared and must be path-copied first.
	epoch uint64
	clock *epochClock
	// copies counts nodes this handle has path-copied, for per-tree
	// memory-amplification accounting.
	copies int64
}

// New returns an empty tree starting its own clone family.
func New[V any]() *Tree[V] {
	c := &epochClock{}
	t := &Tree[V]{clock: c, epoch: c.next()}
	t.root = &leaf[V]{epoch: t.epoch}
	t.height, t.leaves = 1, 1
	return t
}

// Len returns the number of entries.
func (t *Tree[V]) Len() int { return t.size }

// Height returns the number of levels from root to leaf, used to model the
// cost of a point lookup (one page read per level).
func (t *Tree[V]) Height() int { return t.height }

// Leaves returns the number of leaf pages.
func (t *Tree[V]) Leaves() int { return t.leaves }

// COWCopies returns how many nodes this handle has path-copied since it was
// created (counters are not inherited by clones).
func (t *Tree[V]) COWCopies() int64 { return t.copies }

// Get returns the value stored under key, if any. It descends without
// recording a path, so a lookup allocates nothing.
func (t *Tree[V]) Get(key []byte) (val V, ok bool) {
	h := head(key)
	n := t.root
	for in, ok := n.(*inner[V]); ok; in, ok = n.(*inner[V]) {
		n = in.children[in.upper(key, h)]
	}
	l := n.(*leaf[V])
	i, ok := l.search(key, h)
	if !ok {
		return val, false
	}
	return l.vals[i], true
}

const pathDepth = 8 // the descent a writer keeps on the stack (64^8 entries)

// pathEntry records one inner node on a descent plus the child index taken.
type pathEntry[V any] struct {
	in  *inner[V]
	idx int
}

// findLeaf descends to the leaf that owns key (h = head(key)) and returns
// it with the descent path (root first) appended to path.
func (t *Tree[V]) findLeaf(path []pathEntry[V], key []byte, h uint64) (*leaf[V], []pathEntry[V]) {
	n := t.root
	for {
		switch v := n.(type) {
		case *leaf[V]:
			return v, path
		case *inner[V]:
			i := v.upper(key, h)
			path = append(path, pathEntry[V]{v, i})
			n = v.children[i]
		}
	}
}

// ownLeaf returns a leaf this handle may mutate, path-copying when the leaf
// is shared with another handle; the copy has room for the extra entries,
// of room key bytes in all, that the write adds. Values, and key bytes when
// the write adds none, are shared with the copy — both sides treat stored
// keys and rows as immutable.
func (t *Tree[V]) ownLeaf(l *leaf[V], extra, room int) *leaf[V] {
	if l.epoch == t.epoch {
		return l
	}
	t.copies++
	cowCopies.Add(1)
	return &leaf[V]{
		epoch:    t.epoch,
		keyBlock: l.clone(extra, room),
		vals:     append(make([]V, 0, len(l.vals)+extra), l.vals...),
	}
}

// ownInner is ownLeaf for inner nodes, for a write that adds no separator.
func (t *Tree[V]) ownInner(in *inner[V]) *inner[V] {
	if in.epoch == t.epoch {
		return in
	}
	t.copies++
	cowCopies.Add(1)
	return &inner[V]{
		epoch:    t.epoch,
		keyBlock: in.clone(0, 0),
		children: append([]node(nil), in.children...),
	}
}

// ownPath makes every node on the descent writable by this handle — leaf
// first, then each ancestor bottom-up, relinking child pointers and the root
// as copies are made — and returns the owned leaf, with room for the extra
// entries (room key bytes) the write adds. path entries are updated in place
// so callers keep working with owned nodes.
func (t *Tree[V]) ownPath(l *leaf[V], path []pathEntry[V], extra, room int) *leaf[V] {
	nl := t.ownLeaf(l, extra, room)
	var child node = nl
	for d := len(path) - 1; d >= 0; d-- {
		in := t.ownInner(path[d].in)
		in.children[path[d].idx] = child
		path[d].in = in
		child = in
	}
	if len(path) > 0 {
		t.root = path[0].in
	} else {
		t.root = nl
	}
	return nl
}

// Put inserts or replaces the value under key and reports whether the key
// was newly inserted. The key's bytes are copied into the leaf on insert, so
// the caller may reuse key at once; the replacement path copies only the
// shared portion of the descent.
func (t *Tree[V]) Put(key []byte, val V) bool {
	var buf [pathDepth]pathEntry[V]
	h := head(key)
	l, path := t.findLeaf(buf[:0], key, h)
	i, found := l.search(key, h)
	if found {
		l = t.ownPath(l, path, 0, 0)
		l.vals[i] = val
		return false
	}
	l = t.ownPath(l, path, 1, len(key))
	l.insert(i, key)
	l.vals = slices.Insert(l.vals, i, val)
	t.size++
	if l.len() > degree {
		t.splitLeaf(l, path)
	}
	return true
}

// splitLeaf splits an owned, overfull leaf. The right half is a fresh node
// at the writer's epoch; no shared node is touched. The left half is copied
// out too, keys and all: a reslice would keep the whole pre-split arrays
// alive, and in a tree that only appends (ascending keys) the left leaf never
// grows again.
func (t *Tree[V]) splitLeaf(l *leaf[V], path []pathEntry[V]) {
	mid := l.len() / 2
	right := &leaf[V]{
		epoch:    t.epoch,
		keyBlock: l.part(mid, l.len()),
		vals:     slices.Clone(l.vals[mid:]),
	}
	l.keyBlock = l.part(0, mid)
	l.vals = slices.Clone(l.vals[:mid])
	t.leaves++
	t.insertIntoParent(path, l, right.key(0), right)
}

// insertIntoParent splices right under the lowest path entry (already owned
// by this handle), growing a new root when the path is empty. The parent
// copies sep's bytes.
func (t *Tree[V]) insertIntoParent(path []pathEntry[V], left node, sep []byte, right node) {
	if len(path) == 0 {
		root := &inner[V]{epoch: t.epoch, children: []node{left, right}}
		root.insert(0, sep)
		t.root = root
		t.height++
		return
	}
	parent := path[len(path)-1].in
	i := parent.upper(sep, head(sep))
	parent.insert(i, sep)
	parent.children = slices.Insert(parent.children, i+1, right)
	if parent.len() > degree {
		t.splitInner(parent, path[:len(path)-1])
	}
}

// splitInner splits an owned, overfull inner node, copying both halves out
// as splitLeaf does. The separator it promotes stays readable in the old
// key block, which nothing rewrites, until the parent has copied it.
func (t *Tree[V]) splitInner(in *inner[V], path []pathEntry[V]) {
	mid := in.len() / 2
	sep := in.key(mid)
	right := &inner[V]{
		epoch:    t.epoch,
		keyBlock: in.part(mid+1, in.len()),
		children: slices.Clone(in.children[mid+1:]),
	}
	in.keyBlock = in.part(0, mid)
	in.children = slices.Clone(in.children[:mid+1])
	t.insertIntoParent(path, in, sep, right)
}

// Delete removes key and reports whether it was present. Underfull nodes
// are tolerated (no rebalancing), but a leaf that empties is pruned from its
// ancestors immediately so Leaves()-based page accounting stays faithful
// after delete-heavy workloads.
func (t *Tree[V]) Delete(key []byte) bool {
	var buf [pathDepth]pathEntry[V]
	h := head(key)
	l, path := t.findLeaf(buf[:0], key, h)
	i, found := l.search(key, h)
	if !found {
		return false
	}
	l = t.ownPath(l, path, 0, 0)
	// slices.Delete zeroes the vacated tail slot, so the array holds no
	// reference to the deleted value.
	l.remove(i)
	l.vals = slices.Delete(l.vals, i, i+1)
	t.size--
	if l.len() == 0 {
		t.pruneLeaf(path)
	}
	return true
}

// pruneLeaf removes a now-empty leaf (the bottom of an owned path) from the
// inner structure, pruning ancestors that would be left childless. The root
// leaf is kept as the empty tree's single page. Separators above the pruned
// subtree may end up lower than the actual minimum beneath them; that is
// safe — routing only requires separators to be lower bounds.
func (t *Tree[V]) pruneLeaf(path []pathEntry[V]) {
	if len(path) == 0 {
		return
	}
	// Walk up past ancestors that would become childless; they are pruned
	// together with the leaf.
	d := len(path) - 1
	for d >= 0 && len(path[d].in.children) == 1 {
		d--
	}
	if d < 0 {
		// Every ancestor had a single child: the tree is empty. Reset to a
		// fresh single-leaf tree.
		t.root = &leaf[V]{epoch: t.epoch}
		t.height, t.leaves = 1, 1
		return
	}
	p, ci := path[d].in, path[d].idx
	// Dropping child ci drops one separator with it: keys[ci-1] bounds it
	// from the left, except for child 0 whose right bound is keys[0].
	ki := ci - 1
	if ki < 0 {
		ki = 0
	}
	p.remove(ki)
	p.children = slices.Delete(p.children, ci, ci+1)
	t.leaves--
}

// Bulk-construction fill factors. Leaves and inner nodes are packed to ~90%
// of capacity instead of 100% so a bulk-built tree absorbs follow-up Puts
// without immediately splitting every page, and so Leaves()/Height() page
// accounting matches what an incrementally-grown tree of the same size
// reports (incremental splits leave pages 50-100% full; 90% sits inside the
// same leaf-count ballpark while staying O(n/degree)).
const (
	bulkLeafFill = degree * 9 / 10 // entries per packed leaf
	bulkNodeFill = degree*9/10 + 1 // children per packed inner node
)

// BulkLoad builds a tree from the keys of s in O(n). Entry j is key order[j]
// (key j when order is nil) with value vals[j] (the zero V when vals is nil),
// and the entries must be strictly increasing. They are packed directly
// into leaves and the inner levels are assembled bottom-up — no descents, no
// binary searches, no key copied per leaf: every leaf points into one buffer
// holding the keys in entry order, s.Buf itself when order is nil, which the
// tree keeps from then on. Panics if the entries are not strictly increasing
// (Slab.Order sorts them).
func BulkLoad[V any](s Slab, order []int32, vals []V) *Tree[V] {
	run := inOrder(s, order)
	if j := unsortedAt(run); j >= 0 {
		panic(fmt.Sprintf("btree: BulkLoad input not strictly sorted at %d", j))
	}
	c := &epochClock{}
	t := &Tree[V]{clock: c, epoch: c.next()}
	bulkInto(t, run, vals)
	return t
}

// unsortedAt returns the first key of s that is not above the one before
// it, or -1 when the keys are strictly increasing.
func unsortedAt(s Slab) int {
	for j := 1; j < s.Len(); j++ {
		if bytes.Compare(s.Key(j-1), s.Key(j)) >= 0 {
			return j
		}
	}
	return -1
}

// inOrder returns the keys of a bulk input as a slab holding them in entry
// order, so that every leaf's keys are one contiguous run of it: s itself
// when order is nil, else a copy made in one pass.
func inOrder(s Slab, order []int32) Slab {
	if order == nil {
		return s
	}
	run := Slab{Buf: make([]byte, 0, len(s.Buf)), Offs: make([]int, 1, len(order)+1)}
	for _, k := range order {
		run.Buf = append(run.Buf, s.Key(int(k))...)
		run.Offs = append(run.Offs, len(run.Buf))
	}
	return run
}

// bulkLeaf packs entries [pos, pos+cnt) of a bulk input into a fresh leaf
// whose buf is their run of run.Buf, capped: run holds the keys in entry
// order.
func bulkLeaf[V any](t *Tree[V], run Slab, vals []V, pos, cnt int) *leaf[V] {
	lo, hi := run.Offs[pos], run.Offs[pos+cnt]
	l := &leaf[V]{
		epoch:    t.epoch,
		keyBlock: keyBlock{heads: make([]uint64, cnt), slots: make([]slot, cnt), buf: run.Buf[lo:hi:hi]},
		vals:     make([]V, cnt),
	}
	for j := range cnt {
		l.heads[j] = head(run.Key(pos + j))
		l.slots[j] = slot{uint32(run.Offs[pos+j] - lo), uint32(run.Offs[pos+j+1] - run.Offs[pos+j])}
	}
	if vals != nil {
		copy(l.vals, vals[pos:pos+cnt])
	}
	return l
}

// bulkInto (re)initializes t from a sorted bulk input whose keys run holds
// in entry order. Every node is created fresh at t's epoch; nodes of any
// previous contents are abandoned to snapshots that still reference them.
func bulkInto[V any](t *Tree[V], run Slab, vals []V) {
	n := run.Len()
	if n == 0 {
		t.root = &leaf[V]{epoch: t.epoch}
		t.height, t.leaves, t.size = 1, 1, 0
		return
	}
	nLeaves := (n + bulkLeafFill - 1) / bulkLeafFill
	// Distribute entries evenly so the last leaf is never a near-empty runt.
	base, extra := n/nLeaves, n%nLeaves
	nodes := make([]node, 0, nLeaves)
	lows := make([][]byte, 0, nLeaves)
	pos := 0
	for i := 0; i < nLeaves; i++ {
		cnt := base
		if i < extra {
			cnt++
		}
		l := bulkLeaf(t, run, vals, pos, cnt)
		nodes = append(nodes, l)
		lows = append(lows, l.key(0))
		pos += cnt
	}
	t.leaves = nLeaves
	t.size = n
	t.height = 1
	t.root = t.buildInnerLevels(nodes, lows)
}

// buildInnerLevels assembles inner levels bottom-up over nodes whose
// smallest reachable keys are lows, returning the root and bumping height
// once per level built. Each inner node copies its separators into a key
// block of its own.
func (t *Tree[V]) buildInnerLevels(nodes []node, lows [][]byte) node {
	for len(nodes) > 1 {
		nGroups := (len(nodes) + bulkNodeFill - 1) / bulkNodeFill
		base, extra := len(nodes)/nGroups, len(nodes)%nGroups
		next := make([]node, 0, nGroups)
		nextLows := make([][]byte, 0, nGroups)
		pos := 0
		for g := 0; g < nGroups; g++ {
			cnt := base
			if g < extra {
				cnt++
			}
			in := &inner[V]{epoch: t.epoch, children: slices.Clone(nodes[pos : pos+cnt])}
			for _, low := range lows[pos+1 : pos+cnt] {
				in.insert(in.len(), low)
			}
			next = append(next, in)
			nextLows = append(nextLows, lows[pos])
			pos += cnt
		}
		nodes, lows = next, nextLows
		t.height++
	}
	return nodes[0]
}

// AppendBulk appends the entries of a bulk input (as BulkLoad takes them),
// strictly increasing and all greater than the current maximum key, in
// O(n + n/degree·height): the rightmost leaf is topped up with copies, then
// whole packed leaves, pointing into the keys laid out in entry order as
// BulkLoad lays them, are spliced onto the rightmost spine. It reports
// whether the fast path applied; on false the tree is unchanged and the
// caller should fall back to Put.
func (t *Tree[V]) AppendBulk(s Slab, order []int32, vals []V) bool {
	n := s.Len()
	if n == 0 {
		return true
	}
	run := inOrder(s, order)
	if unsortedAt(run) >= 0 {
		return false
	}
	if t.size == 0 {
		bulkInto(t, run, vals)
		return true
	}
	last, path := t.rightmostLeaf()
	if bytes.Compare(last.key(last.len()-1), run.Key(0)) >= 0 {
		return false
	}
	// All preconditions hold: the append happens. Own the rightmost spine
	// once; every node created from here on carries the writer's epoch, so
	// later splice iterations descend through owned nodes only.
	last = t.ownPath(last, path, 0, 0)
	pos := 0
	for pos < n && last.len() < bulkLeafFill {
		var v V
		if vals != nil {
			v = vals[pos]
		}
		last.insert(last.len(), run.Key(pos))
		last.vals = append(last.vals, v)
		t.size++
		pos++
	}
	for pos < n {
		cnt := min(n-pos, bulkLeafFill)
		nl := bulkLeaf(t, run, vals, pos, cnt)
		pos += cnt
		t.leaves++
		t.size += cnt
		// Splice the new leaf onto the rightmost spine; splits propagate
		// through insertIntoParent exactly as for incremental growth. The
		// path must be recomputed per leaf because splits restructure it.
		prev, spine := t.rightmostLeaf()
		t.insertIntoParent(spine, prev, nl.key(0), nl)
	}
	return true
}

// rightmostLeaf returns the rightmost leaf and its descent path.
func (t *Tree[V]) rightmostLeaf() (*leaf[V], []pathEntry[V]) {
	var path []pathEntry[V]
	n := t.root
	for {
		switch v := n.(type) {
		case *leaf[V]:
			return v, path
		case *inner[V]:
			i := len(v.children) - 1
			path = append(path, pathEntry[V]{v, i})
			n = v.children[i]
		}
	}
}

// Clone returns an independent handle over the same contents in O(1): the
// root pointer and page accounting are copied, every node is shared, and
// both handles receive fresh write epochs so neither can mutate a node the
// other reaches — the first write to a shared path copies it. Key bytes and
// row values stay shared for the life of both handles.
//
// Clone must be serialized with writes to the receiver (it reassigns the
// receiver's epoch); the returned snapshot may then be read concurrently
// with writes to the receiver.
func (t *Tree[V]) Clone() *Tree[V] {
	out := *t
	t.epoch = t.clock.next()
	out.epoch = t.clock.next()
	out.copies = 0
	return &out
}

// FillPercent returns the average leaf occupancy as a percentage of leaf
// capacity — the observability hook for bulk-load fill accounting.
func (t *Tree[V]) FillPercent() float64 {
	if t.leaves == 0 {
		return 0
	}
	return 100 * float64(t.size) / float64(t.leaves*degree)
}

// Footprint is the reachable size of one tree handle, for
// memory-amplification accounting (bytes shared vs copied across a clone
// family). Bytes counts key payloads and per-node and per-entry overheads,
// not what values point to (rows: shared by construction, DML replaces them).
type Footprint struct {
	Nodes int
	Bytes int64
}

const (
	nodeOverhead  = 104 // epoch + four slice headers (heads, slots, buf, vals or children)
	keyOverhead   = 16  // a key's head and slot
	childOverhead = 16  // child interface value
)

// nodeBytes sizes one node. A leaf entry is its key's bytes and overhead plus
// the tree's inline value slot (none for struct{}); an inner key carries no
// value. Key bytes are the live keys' own: a buf's spare capacity and the
// bytes of deleted keys are not counted.
func (t *Tree[V]) nodeBytes(n node) int64 {
	b := int64(nodeOverhead)
	switch v := n.(type) {
	case *leaf[V]:
		b += int64(v.liveBytes()) + int64(v.len())*(keyOverhead+int64(unsafe.Sizeof(*new(V))))
	case *inner[V]:
		b += int64(v.liveBytes()) + int64(v.len())*keyOverhead + int64(len(v.children))*childOverhead
	}
	return b
}

func (t *Tree[V]) walk(fn func(n node)) {
	var rec func(n node)
	rec = func(n node) {
		fn(n)
		if in, ok := n.(*inner[V]); ok {
			for _, c := range in.children {
				rec(c)
			}
		}
	}
	rec(t.root)
}

// Footprint walks the handle and sums its reachable nodes.
func (t *Tree[V]) Footprint() Footprint {
	var f Footprint
	t.walk(func(n node) {
		f.Nodes++
		f.Bytes += t.nodeBytes(n)
	})
	return f
}

// SharedFootprint reports the nodes (by pointer identity) reachable from
// both handles — the structurally shared portion of a clone pair.
func (t *Tree[V]) SharedFootprint(other *Tree[V]) Footprint {
	seen := map[node]bool{}
	other.walk(func(n node) { seen[n] = true })
	var f Footprint
	t.walk(func(n node) {
		if seen[n] {
			f.Nodes++
			f.Bytes += t.nodeBytes(n)
		}
	})
	return f
}

// Diff merge-walks two handles of one clone family in key order and calls fn
// for every key stored in a leaf the handles do not share, with each side's
// value (the zero V where that side lacks the key). A subtree both reach through the
// same node pointer is skipped whole — copy-on-write never mutates a node
// another handle can reach, so one pointer means one content — which makes
// the walk proportional to the leaves written since the two were one tree.
// Keys in unshared leaves are reported even when both sides hold an equal
// value; the caller tells those apart. fn returning false stops the walk.
func Diff[V any](a, b *Tree[V], fn func(key []byte, av, bv V) bool) {
	if a.root == b.root {
		return
	}
	ia, ib := a.Seek(nil), b.Seek(nil)
	for ia.valid || ib.valid {
		if ia.valid && ib.valid && ia.i == 0 && ib.i == 0 && skipShared(ia, ib) {
			continue
		}
		c := -1 // which side holds the smaller key: a (-1), both (0), b (1)
		if !ia.valid {
			c = 1
		} else if ib.valid {
			c = bytes.Compare(ia.Key(), ib.Key())
		}
		var key []byte
		var av, bv V
		if c <= 0 {
			key, av = ia.Key(), ia.Value()
		}
		if c >= 0 {
			key, bv = ib.Key(), ib.Value()
		}
		if !fn(key, av, bv) {
			return
		}
		if c <= 0 {
			ia.advance()
		}
		if c >= 0 {
			ib.advance()
		}
	}
}

// skipShared steps both iterators, each on the first entry of a leaf, past
// the largest subtree that begins at both positions, and reports whether
// there was one. Such a subtree begins with the same leaf on both sides, and
// is as tall under one root as under the other: climb from the leaves while
// the descent took child 0 of the same node on both sides.
func skipShared[V any](ia, ib *Iter[V]) bool {
	if ia.l != ib.l {
		return false
	}
	da, db := len(ia.stack), len(ib.stack)
	for da > 0 && db > 0 && ia.stack[da-1] == ib.stack[db-1] && ia.stack[da-1].idx == 0 {
		da, db = da-1, db-1
	}
	ia.stack, ib.stack = ia.stack[:da], ib.stack[:db]
	ia.valid, ib.valid = ia.nextLeaf(), ib.nextLeaf()
	return true
}

// Iter is a forward iterator positioned on a sequence of entries. It holds
// a descent stack into the tree it was opened on: iterating a snapshot is
// stable under any concurrent DML on other handles of the family, while
// mutating the iterated handle itself mid-iteration is undefined (open the
// iterator on a Clone instead).
type Iter[V any] struct {
	stack        []pathEntry[V]
	l            *leaf[V]
	i            int
	hi           []byte // exclusive upper bound key, nil = unbounded
	hiInclusive  bool
	valid        bool
	leavesWalked int
}

// Seek returns an iterator positioned at the first entry with key >= from.
// A nil from starts at the beginning.
func (t *Tree[V]) Seek(from []byte) *Iter[V] { return t.seek(&Iter[V]{}, from) }

// seek repositions it, reusing its descent stack.
func (t *Tree[V]) seek(it *Iter[V], from []byte) *Iter[V] {
	*it = Iter[V]{stack: it.stack[:0]}
	h := head(from)
	n := t.root
	for {
		in, ok := n.(*inner[V])
		if !ok {
			break
		}
		i := 0
		if from != nil {
			i = in.upper(from, h)
		}
		it.stack = append(it.stack, pathEntry[V]{in, i})
		n = in.children[i]
	}
	it.l = n.(*leaf[V])
	if from == nil {
		it.i = -1
	} else {
		i, _ := it.l.search(from, h)
		it.i = i - 1
	}
	it.leavesWalked = 1
	it.advance()
	return it
}

// SeekRange returns an iterator over keys in [from, to). A nil bound is
// unbounded on that side. toInclusive makes the upper bound prefix-inclusive:
// keys equal to the bound or extending it byte-wise stay in range, so a
// composite-key tree can be scanned for "leading columns <= v" by passing the
// encoded v without manufacturing an artificial successor key.
func (t *Tree[V]) SeekRange(from, to []byte, toInclusive bool) *Iter[V] {
	return t.SeekRangeInto(&Iter[V]{}, from, to, toInclusive)
}

// SeekRangeInto is SeekRange repositioning it instead of allocating an
// iterator: a caller that opens scan after scan (the inner step of a join)
// reuses one iterator and its descent stack.
func (t *Tree[V]) SeekRangeInto(it *Iter[V], from, to []byte, toInclusive bool) *Iter[V] {
	t.seek(it, from)
	it.hi = to
	it.hiInclusive = toInclusive
	it.checkBound()
	return it
}

// nextLeaf steps the descent stack to the next leaf in key order, returning
// false (and clearing l) at the end of the tree. Empty leaves cannot occur
// below inner nodes (Delete prunes them immediately), so the landed leaf
// always has entries.
func (it *Iter[V]) nextLeaf() bool {
	for len(it.stack) > 0 {
		f := &it.stack[len(it.stack)-1]
		if f.idx+1 < len(f.in.children) {
			f.idx++
			n := f.in.children[f.idx]
			for {
				in, ok := n.(*inner[V])
				if !ok {
					it.l = n.(*leaf[V])
					it.i = 0
					return true
				}
				it.stack = append(it.stack, pathEntry[V]{in, 0})
				n = in.children[0]
			}
		}
		it.stack = it.stack[:len(it.stack)-1]
	}
	it.l = nil
	return false
}

func (it *Iter[V]) advance() {
	it.i++
	for it.l != nil && it.i >= it.l.len() {
		if it.nextLeaf() {
			it.leavesWalked++
		}
	}
	it.valid = it.l != nil
	it.checkBound()
}

func (it *Iter[V]) checkBound() {
	if !it.valid || it.hi == nil {
		return
	}
	if !it.inBound(it.l.key(it.i)) {
		it.valid = false
	}
}

// inBound reports whether key is inside the iterator's upper bound. The
// admitted key set is always a contiguous range downward-closed in key order:
// exclusive bounds admit key < hi, prefix-inclusive bounds additionally admit
// hi itself and every key extending it.
func (it *Iter[V]) inBound(key []byte) bool {
	c := bytes.Compare(key, it.hi)
	if it.hiInclusive {
		return c <= 0 || bytes.HasPrefix(key, it.hi)
	}
	return c < 0
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iter[V]) Valid() bool { return it.valid }

// Key returns the current key, a capped slice of the leaf's key block. The
// slice must not be modified; its bytes stay as they are for as long as the
// caller holds it, whatever is written to the tree later.
func (it *Iter[V]) Key() []byte { return it.l.key(it.i) }

// Value returns the current value.
func (it *Iter[V]) Value() V { return it.l.vals[it.i] }

// Next advances to the next entry.
func (it *Iter[V]) Next() { it.advance() }

// ReadBatch copies up to max entries into vals (and their keys, as Key hands
// them out, into keys when non-nil) and advances past them, returning the
// number copied. It visits exactly the same
// entry sequence and walks exactly the same leaves as a Valid/Next loop —
// including the eager step into the next leaf after consuming a leaf's last
// entry — so LeavesWalked-based I/O accounting is identical either way. The
// fast path span-copies a whole leaf remainder with a single bound check on
// its last key, which is sound because the bound admits a downward-closed key
// range (see inBound).
func (it *Iter[V]) ReadBatch(keys [][]byte, vals []V, max int) int {
	n := 0
	for it.valid && n < max {
		l, i := it.l, it.i
		take := l.len() - i
		if take > max-n {
			take = max - n
		}
		crossed := it.hi != nil && !it.inBound(l.key(i+take-1))
		if crossed {
			// The span crosses the bound: copy the in-bound head and stop on
			// the first out-of-bound entry, like checkBound would.
			cut := 0
			for cut < take && it.inBound(l.key(i+cut)) {
				cut++
			}
			take = cut
		}
		copy(vals[n:], l.vals[i:i+take])
		for j := 0; keys != nil && j < take; j++ {
			keys[n+j] = l.key(i + j)
		}
		n += take
		if crossed {
			it.i = i + take
			it.valid = false
			return n
		}
		// Reposition on the last consumed entry and advance off it, so leaf
		// stepping and bound invalidation mirror per-entry iteration.
		it.i = i + take - 1
		it.advance()
	}
	return n
}

// LeavesWalked returns how many leaf pages the iterator has touched, for
// I/O accounting.
func (it *Iter[V]) LeavesWalked() int { return it.leavesWalked }

// LeafLen returns the number of entries in the current leaf page, or 0 when
// the iterator is exhausted. Together with SkipLeaf it supports page-stride
// sampling (ANALYZE reads whole pages or skips them wholesale).
func (it *Iter[V]) LeafLen() int {
	if !it.valid {
		return 0
	}
	return it.l.len()
}

// SkipLeaf advances to the first entry of the next leaf page without
// visiting the remaining entries of the current one. The entered page
// counts as walked; the skipped remainder of the current page was already
// counted when the iterator entered it.
func (it *Iter[V]) SkipLeaf() {
	if !it.valid {
		return
	}
	if !it.nextLeaf() {
		it.valid = false
		return
	}
	it.leavesWalked++
	it.valid = true
	it.checkBound()
}

// Validate checks tree invariants and returns an error describing the first
// violation. Beyond ordering, size and page accounting it verifies the
// key blocks (every head is its key's, every slot inside its buf, one value
// per leaf key) and the copy-on-write invariants of the handle:
//
//   - no reachable node carries an epoch newer than the handle's write epoch
//     (a violation means another handle mutated structure this one can see);
//   - epochs never increase from parent to child (owned nodes are only ever
//     linked beneath owned nodes — path-copying is top-down complete);
//   - no epoch exceeds the family clock (a forged or corrupted tag).
//
// The fault and scenario suites run this per cycle on every live tree, so a
// cross-snapshot in-place mutation would surface as a structural violation
// there even when no snapshot is currently observing the damage.
func (t *Tree[V]) Validate() error {
	var prev []byte
	count := 0
	for it := t.Seek(nil); it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			return fmt.Errorf("btree: keys out of order: %x >= %x", prev, it.Key())
		}
		prev = it.Key()
		count++
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but iterated %d", t.size, count)
	}
	// Cross-check the leaves counter against the set of leaves reachable
	// through the structure, and forbid empty leaves in a non-empty tree.
	reachable := 0
	var err error
	t.walk(func(n node) {
		if l, ok := n.(*leaf[V]); ok {
			reachable++
			if l.len() == 0 && t.size > 0 && err == nil {
				err = fmt.Errorf("btree: empty leaf reachable at position %d", reachable-1)
			}
		}
	})
	if err != nil {
		return err
	}
	if reachable != t.leaves {
		return fmt.Errorf("btree: leaves counter %d but structure reaches %d", t.leaves, reachable)
	}
	if t.clock != nil {
		limit := t.clock.n.Load()
		if t.epoch > limit {
			return fmt.Errorf("btree: handle epoch %d exceeds family clock %d", t.epoch, limit)
		}
	}
	return t.validateNode(t.root, nil, nil, t.epoch)
}

func (t *Tree[V]) validateNode(n node, lo, hi []byte, maxEpoch uint64) error {
	switch v := n.(type) {
	case *leaf[V]:
		if v.epoch > maxEpoch {
			return fmt.Errorf("btree: leaf epoch %d above parent/handle epoch %d (cross-snapshot mutation)", v.epoch, maxEpoch)
		}
		if err := v.check(); err != nil {
			return err
		}
		if len(v.vals) != v.len() {
			return fmt.Errorf("btree: leaf has %d keys but %d values", v.len(), len(v.vals))
		}
		for i := range v.len() {
			k := v.key(i)
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return fmt.Errorf("btree: leaf key below lower bound")
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return fmt.Errorf("btree: leaf key above upper bound")
			}
		}
	case *inner[V]:
		if v.epoch > maxEpoch {
			return fmt.Errorf("btree: inner epoch %d above parent/handle epoch %d (cross-snapshot mutation)", v.epoch, maxEpoch)
		}
		if err := v.check(); err != nil {
			return err
		}
		if len(v.children) != v.len()+1 {
			return fmt.Errorf("btree: inner children/keys mismatch")
		}
		for i, c := range v.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = v.key(i - 1)
			}
			if i < v.len() {
				chi = v.key(i)
			}
			if err := t.validateNode(c, clo, chi, v.epoch); err != nil {
				return err
			}
		}
	}
	return nil
}
