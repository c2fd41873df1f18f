package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// keyBlock holds one node's keys without a pointer per key (Graefe and
// Larson's "poor man's normalized keys", ICDE 2001): heads[i] is key i's first
// eight bytes, big-endian and zero-padded, and key i itself is
// buf[slots[i].off:][:slots[i].n]. A binary search compares heads as integers
// and reads key bytes only to break a tie between equal heads or to confirm a
// hit; an INT key (a tag byte and a float64) under 2^44 is decided by its head
// alone.
//
// No byte of buf below len(buf) is ever rewritten: Iter.Key, ReadBatch and
// Diff hand out capped sub-slices of buf, which must stay valid whatever later
// writes do to the node, its copies or its snapshots. A block appends a key
// only into its own spare capacity, where no handed-out key reaches, and when
// that runs out it moves to a compacted copy; a deleted key's bytes stay
// behind until then. A block copied for another handle, or a bulk-built
// leaf's run of its load's key buffer, has its buf capped at its length, so
// its first append moves it.
type keyBlock struct {
	heads []uint64
	slots []slot
	buf   []byte
}

// slot locates one key in its block's buf.
type slot struct{ off, n uint32 }

// head is key's first eight bytes, big-endian and zero-padded. head(a) <
// head(b) implies a < b bytewise, and a < b implies head(a) <= head(b), so
// heads order keys wherever they differ.
func head(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

func (b *keyBlock) len() int { return len(b.heads) }

// key returns key i, capped so an append to it never writes into buf.
func (b *keyBlock) key(i int) []byte {
	s := b.slots[i]
	end := s.off + s.n
	return b.buf[s.off:end:end]
}

// search returns the index of the first key >= key (h = head(key)) and
// whether that key equals key.
func (b *keyBlock) search(key []byte, h uint64) (int, bool) {
	lo, n := 0, len(b.heads)
	for n > 1 {
		lo, n = b.narrow(lo, n, h)
	}
	return b.settle(b.lowerHead(lo, n, h), key, h)
}

// narrow is one step of a branch-free lower bound over heads alone: of the n
// > 1 heads from lo, it keeps the part that holds the first head >= h. The
// next position is computed, not branched to, so a batch of searches can
// step in lockstep with its loads in flight together (Tree.GetBatch).
func (b *keyBlock) narrow(lo, n int, h uint64) (int, int) {
	half := n >> 1
	return lo + half&-b2i(b.heads[lo+half] < h), n - half
}

// lowerHead ends a lower bound narrowed to n <= 1 heads from lo: the index
// of the first head >= h.
func (b *keyBlock) lowerHead(lo, n int, h uint64) int {
	return lo + b2i(n > 0 && b.heads[lo] < h)
}

// settle confirms or settles a lower bound taken over heads: i is the first
// key whose head is >= h. It returns the first key >= key and whether that
// key equals key, reading key bytes only where a head equals h — one key to
// confirm a hit, a binary search over the run on the rare tie of heads.
func (b *keyBlock) settle(i int, key []byte, h uint64) (int, bool) {
	j := i
	for j < len(b.heads) && b.heads[j] == h {
		j++
	}
	for i < j {
		mid := int(uint(i+j) >> 1)
		switch c := bytes.Compare(b.key(mid), key); {
		case c < 0:
			i = mid + 1
		case c > 0:
			j = mid
		default:
			return mid, true
		}
	}
	return i, false
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// upper returns the number of keys <= key (h = head(key)): in an inner node,
// the index of the child that may contain key.
func (b *keyBlock) upper(key []byte, h uint64) int {
	lo, hi := 0, len(b.heads)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m := b.heads[mid]; h < m || h == m && bytes.Compare(key, b.key(mid)) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// insert copies key into the block at position i. A buf without room moves
// to one with room for the keys the node can still take before it splits,
// at their average size so far, but at most twice what it holds.
func (b *keyBlock) insert(i int, key []byte) {
	if cap(b.buf)-len(b.buf) < len(key) {
		size, n := b.liveBytes()+len(key), len(b.heads)+1
		b.rebuf(len(key) + min(size, size*max(degree+1-n, 0)/n))
	}
	b.heads = slices.Insert(b.heads, i, head(key))
	b.slots = slices.Insert(b.slots, i, slot{uint32(len(b.buf)), uint32(len(key))})
	b.buf = append(b.buf, key...)
}

// remove drops key i. Its bytes stay in buf until the block next moves.
func (b *keyBlock) remove(i int) {
	b.heads = slices.Delete(b.heads, i, i+1)
	b.slots = slices.Delete(b.slots, i, i+1)
}

func (b *keyBlock) liveBytes() int {
	n := 0
	for _, s := range b.slots {
		n += int(s.n)
	}
	return n
}

// rebuf moves the live keys, back to back, into a fresh buf with room bytes
// to spare and points the slots there. The old buf is left as it was. A buf
// that holds nothing but live keys (a bulk-built leaf's run, a block nothing
// was deleted from) moves in one copy, its slots unchanged; otherwise keys
// that lie back to back in slot order move together.
func (b *keyBlock) rebuf(room int) {
	live := b.liveBytes()
	buf := make([]byte, 0, live+room)
	if live == len(b.buf) {
		b.buf = append(buf, b.buf...)
		return
	}
	for j := 0; j < len(b.slots); {
		start, end, k := b.slots[j].off, b.slots[j].off+b.slots[j].n, j+1
		for k < len(b.slots) && b.slots[k].off == end {
			end += b.slots[k].n
			k++
		}
		for ; j < k; j++ {
			b.slots[j].off = b.slots[j].off - start + uint32(len(buf))
		}
		buf = append(buf, b.buf[start:end]...)
	}
	b.buf = buf
}

// clone copies the block for another handle, sized for the write that
// caused the copy: room for extra more keys of room bytes in all. With no
// bytes to add, buf is shared, capped at its length; otherwise the live keys
// move to a buf of their own with exactly room to spare, so the write does
// not move them a second time.
func (b *keyBlock) clone(extra, room int) keyBlock {
	c := keyBlock{
		heads: append(make([]uint64, 0, len(b.heads)+extra), b.heads...),
		slots: append(make([]slot, 0, len(b.slots)+extra), b.slots...),
		buf:   b.buf[:len(b.buf):len(b.buf)],
	}
	if room > 0 {
		c.rebuf(room)
	}
	return c
}

// part returns keys [lo, hi) as a block of their own, exactly sized: a split
// half keeps nothing of the pre-split buf alive.
func (b *keyBlock) part(lo, hi int) keyBlock {
	p := keyBlock{heads: slices.Clone(b.heads[lo:hi]), slots: slices.Clone(b.slots[lo:hi]), buf: b.buf}
	p.rebuf(0)
	return p
}

// check reports a key whose head is not its own or whose slot leaves buf.
func (b *keyBlock) check() error {
	if len(b.slots) != len(b.heads) {
		return fmt.Errorf("btree: %d heads but %d slots", len(b.heads), len(b.slots))
	}
	for i, s := range b.slots {
		if uint64(s.off)+uint64(s.n) > uint64(len(b.buf)) {
			return fmt.Errorf("btree: key %d at %d+%d outside its %d-byte buf", i, s.off, s.n, len(b.buf))
		}
		if h := head(b.key(i)); b.heads[i] != h {
			return fmt.Errorf("btree: key %d has head %016x, its bytes %016x", i, b.heads[i], h)
		}
	}
	return nil
}
