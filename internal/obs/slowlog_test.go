package obs

import (
	"testing"
	"time"
)

// TestSlowLogThreshold pins over-threshold capture: every statement at or
// over the threshold is kept with Slow=true regardless of sampling, and
// everything under it (with sampling off) is discarded.
func TestSlowLogThreshold(t *testing.T) {
	l := NewSlowLog(8, 10*time.Millisecond, 0)
	reg := NewRegistry()
	l.Instrument(reg)

	l.Observe(SlowEntry{SQL: "fast"}, 2*time.Millisecond)
	l.Observe(SlowEntry{SQL: "edge"}, 10*time.Millisecond)
	l.Observe(SlowEntry{SQL: "slow"}, 50*time.Millisecond)

	snap := l.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("captured = %d, want 2: %+v", len(snap), snap)
	}
	if snap[0].SQL != "edge" || snap[1].SQL != "slow" {
		t.Fatalf("order = %q, %q", snap[0].SQL, snap[1].SQL)
	}
	for _, e := range snap {
		if !e.Slow {
			t.Errorf("%q not marked slow", e.SQL)
		}
	}
	if snap[1].LatencySeconds != 0.05 {
		t.Errorf("latency = %v", snap[1].LatencySeconds)
	}
	s := reg.Snapshot()
	if s.Counters["slowlog.observed"] != 3 || s.Counters["slowlog.slow"] != 2 ||
		s.Counters["slowlog.sampled"] != 0 {
		t.Errorf("counters = %v", s.Counters)
	}
}

// TestSlowLogSamplingDeterminism pins the sampling contract DESIGN.md
// documents: the k-th non-slow statement (1-based, Observe call order) is
// captured iff (k-1) % sampleN == 0. Slow statements do not advance the
// sampling clock.
func TestSlowLogSamplingDeterminism(t *testing.T) {
	l := NewSlowLog(64, 10*time.Millisecond, 4)
	for i := 0; i < 12; i++ {
		l.Observe(SlowEntry{Seq: uint64(i)}, time.Millisecond)
		if i == 5 {
			// A slow capture mid-stream must not perturb which non-slow
			// statements get sampled.
			l.Observe(SlowEntry{Seq: 1000}, time.Second)
		}
	}
	var sampled []uint64
	for _, e := range l.Snapshot() {
		if !e.Slow {
			sampled = append(sampled, e.Seq)
		}
	}
	// Non-slow statements k=1..12 → captured at k=1,5,9 → Seq 0, 4, 8.
	want := []uint64{0, 4, 8}
	if len(sampled) != len(want) {
		t.Fatalf("sampled = %v, want %v", sampled, want)
	}
	for i := range want {
		if sampled[i] != want[i] {
			t.Fatalf("sampled = %v, want %v", sampled, want)
		}
	}
	if l.Len() != 4 { // 3 sampled + 1 slow
		t.Errorf("len = %d", l.Len())
	}
}

// TestSlowLogRingEviction fills the ring past capacity and checks the
// oldest entries fall off, with evictions counted.
func TestSlowLogRingEviction(t *testing.T) {
	l := NewSlowLog(4, time.Millisecond, 0)
	reg := NewRegistry()
	l.Instrument(reg)
	for i := 0; i < 10; i++ {
		l.Observe(SlowEntry{Seq: uint64(i)}, time.Second)
	}
	snap := l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("len = %d", len(snap))
	}
	for i, e := range snap {
		if e.Seq != uint64(6+i) {
			t.Fatalf("snapshot[%d].Seq = %d, want %d", i, e.Seq, 6+i)
		}
	}
	if got := reg.Snapshot().Counters["slowlog.evicted"]; got != 6 {
		t.Errorf("evicted = %d, want 6", got)
	}
}

// TestSlowLogNilSafe: a nil log is the disabled state — every method is a
// no-op, matching the package's nil-is-off rule.
func TestSlowLogNilSafe(t *testing.T) {
	var l *SlowLog
	l.Instrument(NewRegistry())
	l.Observe(SlowEntry{SQL: "x"}, time.Second)
	if l.Snapshot() != nil || l.Len() != 0 || l.Threshold() != 0 || l.SampleN() != 0 {
		t.Error("nil SlowLog not inert")
	}
}

// TestSlowLogDefaults pins the constructor defaults the flag plumbing
// relies on.
func TestSlowLogDefaults(t *testing.T) {
	l := NewSlowLog(0, 5*time.Millisecond, 100)
	if len(l.ring.buf) != 256 {
		t.Errorf("default capacity = %d", len(l.ring.buf))
	}
	if l.Threshold() != 5*time.Millisecond || l.SampleN() != 100 {
		t.Errorf("threshold=%v sampleN=%d", l.Threshold(), l.SampleN())
	}
}
