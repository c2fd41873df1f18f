package regression

import (
	"fmt"
	"io"
	"sort"

	"aim/internal/obs"
)

// transition is one adopt or revert of an index key at a given window.
type transition struct {
	window int
	revert bool
}

// Stability accounts the adopt/revert transitions of automation indexes
// across the windows of a tuning loop. It exposes the counters the scenario
// suite's stability assertions need: per-key flip counts (re-adoption after
// a revert — the oscillation signature), revert latency relative to the
// adopt that preceded it, and the adopted-then-reverted key set whose audit
// lineage must be reconstructable. One Stability tracks one loop; it is not
// safe for concurrent use.
type Stability struct {
	window int
	keys   map[string][]transition
	reg    *obs.Registry
}

// NewStability returns an empty tracker; windows start at 1 with the first
// BeginWindow call.
func NewStability() *Stability {
	return &Stability{keys: map[string][]transition{}}
}

// SetObs attaches a registry; adopt/revert/flip counters are then published
// as regression.stability.* alongside the detector's own metrics.
func (s *Stability) SetObs(r *obs.Registry) { s.reg = r }

// BeginWindow advances the window clock; call once per tuning cycle before
// recording that cycle's transitions.
func (s *Stability) BeginWindow() { s.window++ }

// NoteAdopted records the adoption of the given index keys this window.
func (s *Stability) NoteAdopted(keys ...string) {
	for _, k := range keys {
		if s.reg != nil {
			s.reg.Counter("regression.stability.adoptions").Inc()
			if s.reverts(k) > 0 {
				s.reg.Counter("regression.stability.flips").Inc()
			}
		}
		s.keys[k] = append(s.keys[k], transition{window: s.window})
	}
}

// NoteReverted records the revert of the given index keys this window.
func (s *Stability) NoteReverted(keys ...string) {
	for _, k := range keys {
		s.keys[k] = append(s.keys[k], transition{window: s.window, revert: true})
		if s.reg != nil {
			s.reg.Counter("regression.stability.reverts").Inc()
		}
	}
}

func (s *Stability) reverts(key string) int {
	n := 0
	for _, t := range s.keys[key] {
		if t.revert {
			n++
		}
	}
	return n
}

// Flips returns how many times the key was re-adopted after having been
// reverted at least once — the oscillation count. A key adopted once and
// never reverted, or reverted once and never re-adopted, has 0 flips.
func (s *Stability) Flips(key string) int {
	flips, reverted := 0, false
	for _, t := range s.keys[key] {
		if t.revert {
			reverted = true
		} else if reverted {
			flips++
		}
	}
	return flips
}

// MaxFlips returns the key with the most flips and its count (smallest key
// on ties; "" and 0 when nothing was tracked).
func (s *Stability) MaxFlips() (string, int) {
	bestKey, best := "", 0
	for _, k := range s.sortedKeys() {
		if f := s.Flips(k); f > best {
			bestKey, best = k, f
		}
	}
	return bestKey, best
}

// AdoptedThenReverted returns the sorted keys with at least one adopt
// followed (in window order) by a revert.
func (s *Stability) AdoptedThenReverted() []string {
	var out []string
	for _, k := range s.sortedKeys() {
		adopted := false
		for _, t := range s.keys[k] {
			if !t.revert {
				adopted = true
			} else if adopted {
				out = append(out, k)
				break
			}
		}
	}
	return out
}

// FirstRevertAt returns the earliest revert at or after window w (its key
// and window). ok is false when no such revert was recorded.
func (s *Stability) FirstRevertAt(w int) (key string, window int, ok bool) {
	for _, k := range s.sortedKeys() {
		for _, t := range s.keys[k] {
			if !t.revert || t.window < w {
				continue
			}
			if !ok || t.window < window {
				key, window, ok = k, t.window, true
			}
			break
		}
	}
	return key, window, ok
}

// MaxRevertLatency returns the largest gap in windows between a revert and
// the adopt that preceded it (0 when nothing was reverted).
func (s *Stability) MaxRevertLatency() int {
	max := 0
	for _, ts := range s.keys {
		lastAdopt := -1
		for _, t := range ts {
			if !t.revert {
				lastAdopt = t.window
				continue
			}
			if lastAdopt >= 0 && t.window-lastAdopt > max {
				max = t.window - lastAdopt
			}
		}
	}
	return max
}

func (s *Stability) sortedKeys() []string {
	out := make([]string, 0, len(s.keys))
	for k := range s.keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Render writes a deterministic per-key transition summary, one line per
// key ("events(user_id) adopt@3 revert@17 adopt@25") — the scenario suite
// compares it byte for byte across worker counts.
func (s *Stability) Render(w io.Writer) {
	for _, k := range s.sortedKeys() {
		fmt.Fprintf(w, "%s", k)
		for _, t := range s.keys[k] {
			verb := "adopt"
			if t.revert {
				verb = "revert"
			}
			fmt.Fprintf(w, " %s@%d", verb, t.window)
		}
		fmt.Fprintln(w)
	}
}
