package obs

// ring is a count-bounded drop-oldest buffer: the storage behind SlowLog.
// Not safe for concurrent use; the owner locks.
type ring[T any] struct {
	buf  []T
	next int // write cursor
	size int // live entries (≤ len(buf))
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

// push appends v and reports whether it overwrote the oldest entry.
func (r *ring[T]) push(v T) (evicted bool) {
	evicted = r.size == len(r.buf)
	if !evicted {
		r.size++
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	return evicted
}

// snapshot copies the live entries, oldest first (nil when empty).
func (r *ring[T]) snapshot() []T {
	if r.size == 0 {
		return nil
	}
	out := make([]T, 0, r.size)
	start := (r.next - r.size + len(r.buf)) % len(r.buf)
	for i := 0; i < r.size; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}
