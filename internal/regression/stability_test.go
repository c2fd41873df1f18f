package regression

import (
	"strings"
	"testing"

	"aim/internal/obs"
)

// script replays a compact transition history into a fresh tracker: each
// entry is (window, key, revert). Windows must be non-decreasing.
func script(t *testing.T, steps []struct {
	window int
	key    string
	revert bool
}) *Stability {
	t.Helper()
	s := NewStability()
	for _, st := range steps {
		for s.window < st.window {
			s.BeginWindow()
		}
		if st.revert {
			s.NoteReverted(st.key)
		} else {
			s.NoteAdopted(st.key)
		}
	}
	return s
}

func TestStabilityCounters(t *testing.T) {
	s := script(t, []struct {
		window int
		key    string
		revert bool
	}{
		{1, "t(a)", false},
		{1, "t(b)", false},
		{5, "t(a)", true},
		{9, "t(a)", false}, // flip: re-adoption after a revert
		{12, "t(a)", true},
		{14, "t(c)", true}, // revert with no prior adopt (e.g. pre-seeded index)
	})
	if got := s.Flips("t(a)"); got != 1 {
		t.Errorf("Flips(t(a)) = %d, want 1", got)
	}
	if got := s.Flips("t(b)"); got != 0 {
		t.Errorf("Flips(t(b)) = %d, want 0", got)
	}
	if key, n := s.MaxFlips(); key != "t(a)" || n != 1 {
		t.Errorf("MaxFlips = %q/%d, want t(a)/1", key, n)
	}
	// t(c) was reverted but never adopted first; t(b) never reverted.
	if got := s.AdoptedThenReverted(); len(got) != 1 || got[0] != "t(a)" {
		t.Errorf("AdoptedThenReverted = %v, want [t(a)]", got)
	}
	// Latencies: adopt@1->revert@5 = 4, adopt@9->revert@12 = 3.
	if got := s.MaxRevertLatency(); got != 4 {
		t.Errorf("MaxRevertLatency = %d, want 4", got)
	}
	if key, w, ok := s.FirstRevertAt(6); !ok || key != "t(a)" || w != 12 {
		t.Errorf("FirstRevertAt(6) = %q/%d/%v, want t(a)/12/true", key, w, ok)
	}
	if _, _, ok := s.FirstRevertAt(15); ok {
		t.Error("FirstRevertAt past the last revert reported ok")
	}
	var sb strings.Builder
	s.Render(&sb)
	want := "t(a) adopt@1 revert@5 adopt@9 revert@12\nt(b) adopt@1\nt(c) revert@14\n"
	if sb.String() != want {
		t.Errorf("Render:\n%q\nwant:\n%q", sb.String(), want)
	}
}

func TestStabilityEmpty(t *testing.T) {
	s := NewStability()
	if key, n := s.MaxFlips(); key != "" || n != 0 {
		t.Errorf("MaxFlips on empty tracker = %q/%d", key, n)
	}
	if got := s.AdoptedThenReverted(); len(got) != 0 {
		t.Errorf("AdoptedThenReverted on empty tracker = %v", got)
	}
	if _, _, ok := s.FirstRevertAt(0); ok {
		t.Error("FirstRevertAt on empty tracker reported ok")
	}
	if got := s.MaxRevertLatency(); got != 0 {
		t.Errorf("MaxRevertLatency on empty tracker = %d", got)
	}
	var sb strings.Builder
	s.Render(&sb)
	if sb.String() != "" {
		t.Errorf("Render on empty tracker = %q", sb.String())
	}
}

// TestStabilityObsCounters: with a registry attached, adopts, reverts and
// flips are published; a re-adoption after a revert counts as a flip.
func TestStabilityObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewStability()
	s.SetObs(reg)
	s.BeginWindow()
	s.NoteAdopted("t(a)", "t(b)")
	s.BeginWindow()
	s.NoteReverted("t(a)")
	s.BeginWindow()
	s.NoteAdopted("t(a)")
	if got := reg.Counter("regression.stability.adoptions").Value(); got != 3 {
		t.Errorf("adoptions counter = %d, want 3", got)
	}
	if got := reg.Counter("regression.stability.reverts").Value(); got != 1 {
		t.Errorf("reverts counter = %d, want 1", got)
	}
	if got := reg.Counter("regression.stability.flips").Value(); got != 1 {
		t.Errorf("flips counter = %d, want 1", got)
	}
}
