package regression

import "testing"

// TestConfirmWindowsSuppressesAlternation is the hysteresis half of the
// oscillation guard: a query whose cpu_avg alternates just above and below
// the threshold every other window must never be flagged when the detector
// requires two confirming windows, because the elevation never persists.
func TestConfirmWindowsSuppressesAlternation(t *testing.T) {
	db := fixture(t)
	d := NewDetector(0.3)
	d.ConfirmWindows = 2
	flagged := 0
	for i := 0; i < 40; i++ {
		cpu := 0.001
		if i%2 == 1 {
			cpu = 0.0016 // +60%, above the 30% threshold
		}
		flagged += len(d.Observe(db, window(t, db, cpu, 10)))
	}
	if flagged != 0 {
		t.Fatalf("alternating workload flagged %d regressions with ConfirmWindows=2, want 0", flagged)
	}
	// Control: without hysteresis the same workload flags on every up-swing.
	d1 := NewDetector(0.3)
	flagged = 0
	for i := 0; i < 40; i++ {
		cpu := 0.001
		if i%2 == 1 {
			cpu = 0.0016
		}
		flagged += len(d1.Observe(db, window(t, db, cpu, 10)))
	}
	if flagged < 10 {
		t.Fatalf("control without hysteresis flagged %d, want the alternation to thrash", flagged)
	}
}

// TestConfirmWindowsStillCatchesStepChange: a genuine persistent step must
// still be flagged, one window later per extra confirmation, and against the
// pre-regression baseline (not the already-elevated previous window).
func TestConfirmWindowsStillCatchesStepChange(t *testing.T) {
	db := fixture(t)
	d := NewDetector(0.3)
	d.ConfirmWindows = 2
	d.Observe(db, window(t, db, 0.001, 10))
	if regs := d.Observe(db, window(t, db, 0.0016, 10)); len(regs) != 0 {
		t.Fatalf("first exceeding window flagged before confirmation: %v", regs)
	}
	regs := d.Observe(db, window(t, db, 0.0016, 10))
	if len(regs) != 1 {
		t.Fatalf("persistent step not confirmed: %d regressions", len(regs))
	}
	if regs[0].Change() < 0.5 {
		t.Errorf("change %v compared against the elevated window, not the pinned baseline", regs[0].Change())
	}
}

// TestAnchorWindowsCatchesSlowDrift: +12%/window never trips the 50%
// window-over-window threshold, but against an anchor refreshed every 6
// windows the cumulative creep does.
func TestAnchorWindowsCatchesSlowDrift(t *testing.T) {
	db := fixture(t)
	d := NewDetector(0.5)
	d.AnchorWindows = 6
	cpu := 0.001
	flagged := 0
	for i := 0; i < 12; i++ {
		flagged += len(d.Observe(db, window(t, db, cpu, 10)))
		cpu *= 1.12
	}
	if flagged == 0 {
		t.Fatal("slow drift evaded the anchored detector")
	}
	// Control: the plain window-over-window detector is blind to it.
	d1 := NewDetector(0.5)
	cpu = 0.001
	flagged = 0
	for i := 0; i < 12; i++ {
		flagged += len(d1.Observe(db, window(t, db, cpu, 10)))
		cpu *= 1.12
	}
	if flagged != 0 {
		t.Fatalf("control without anchor flagged %d; drift rate is not slow enough for the test", flagged)
	}
}

// TestRevertCooldownEscalates pins the cooldown mechanics: the first revert
// suppresses for RevertCooldown windows (ticked down by Observe), the second
// for twice as long.
func TestRevertCooldownEscalates(t *testing.T) {
	db := fixture(t)
	d := NewDetector(0.5)
	d.RevertCooldown = 3
	const key = "t(a)"
	d.NoteReverted(key)
	for i := 0; i < 3; i++ {
		if !d.InCooldown(key) {
			t.Fatalf("window %d: cooldown expired early", i)
		}
		d.Observe(db, window(t, db, 0.001, 10))
	}
	if d.InCooldown(key) {
		t.Fatal("cooldown did not expire after 3 windows")
	}
	d.NoteReverted(key)
	for i := 0; i < 6; i++ {
		if !d.InCooldown(key) {
			t.Fatalf("escalated window %d: cooldown expired early (no doubling)", i)
		}
		d.Observe(db, window(t, db, 0.001, 10))
	}
	if d.InCooldown(key) {
		t.Fatal("escalated cooldown did not expire after 6 windows")
	}
}
