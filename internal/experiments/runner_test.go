package experiments

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"aim/internal/audit"
	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/regression"
	"aim/internal/scenarios"
)

// windowIDs runs two windows of seven fleet statements dealt to three
// sessions on the given transport and returns each window record's statement
// IDs, sorted.
func windowIDs(t *testing.T, live bool) [][]string {
	t.Helper()
	sc := scenarios.NewFleet()
	r := rand.New(rand.NewSource(5))
	db, err := sc.Setup(r)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jrn := audit.New(&buf)
	db.SetAudit(jrn)
	cfg := core.DefaultConfig()
	cfg.Selection.MinExecutions = 1
	var loop *Loop
	if live {
		if loop, err = NewLiveLoop(db, cfg, regression.NewDetector(0.5), r, 3); err != nil {
			t.Fatal(err)
		}
	} else {
		loop = NewLoop(db, cfg, regression.NewDetector(0.5), r)
		loop.Clients = 3
	}
	loop.Sample = sc.Statement
	if err := loop.Run(2, 7); err != nil {
		t.Fatal(err)
	}
	if err := loop.Close(); err != nil {
		t.Fatal(err)
	}
	if loop.Statements != 14 || len(loop.Errors) != 0 {
		t.Fatalf("%d statements, errors %v; want 14, none", loop.Statements, loop.Errors)
	}
	recs, err := audit.ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for _, rec := range recs {
		if rec.Event != audit.EventWindow {
			continue
		}
		var ids []string
		for _, q := range rec.Queries {
			ids = append(ids, q.Statements...)
		}
		sort.Strings(ids)
		out = append(out, ids)
	}
	return out
}

// TestLoopDealsClientMajor pins the dealing contract on both transports:
// statement k of a cycle goes to session k / perSession (the last session
// takes the short share), labelled and traced by position, so the offline
// loop and three real connections hand the tuner the same window.
func TestLoopDealsClientMajor(t *testing.T) {
	if sessionLabel(7) != "lg-0007" || traceID(7, 2, 5) != "t-0007-2-5" {
		t.Errorf("sessionLabel(7) = %q, traceID(7, 2, 5) = %q", sessionLabel(7), traceID(7, 2, 5))
	}
	labels := make([]string, 120)
	for c := range labels {
		labels[c] = sessionLabel(c)
	}
	if !sort.StringsAreSorted(labels) {
		t.Error("label sort order differs from session index order")
	}
	want := [][]string{
		{"t-0000-0-0", "t-0000-0-1", "t-0000-0-2", "t-0001-0-0", "t-0001-0-1", "t-0001-0-2", "t-0002-0-0"},
		{"t-0000-1-0", "t-0000-1-1", "t-0000-1-2", "t-0001-1-0", "t-0001-1-1", "t-0001-1-2", "t-0002-1-0"},
	}
	if got := windowIDs(t, false); !reflect.DeepEqual(got, want) {
		t.Errorf("offline windows = %v, want %v", got, want)
	}
	if got := windowIDs(t, true); !reflect.DeepEqual(got, want) {
		t.Errorf("live windows = %v, want %v", got, want)
	}
}

// TestLiveAdvanceHoldsWriteGate pins that a live loop runs the scenario's
// side effect holding the write side of the server's statement gate — the
// locker the tuner applies and reverts under — and an offline loop, which
// has no gate, runs it bare.
func TestLiveAdvanceHoldsWriteGate(t *testing.T) {
	sc := scenarios.NewCodePush()
	r := rand.New(rand.NewSource(1))
	db, err := sc.Setup(r)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Selection.MinExecutions = 1
	loop, err := NewLiveLoop(db, cfg, regression.NewDetector(0.5), r, 1)
	if err != nil {
		t.Fatal(err)
	}
	gate, ok := loop.Tuner.Write.(*sync.RWMutex)
	if !ok {
		t.Fatalf("the live tuner's write side is a %T, want the server's statement gate", loop.Tuner.Write)
	}
	advanced := 0
	loop.Sample = sc.Statement
	loop.Advance = func(*engine.DB, int, *rand.Rand) error {
		advanced++
		if gate.TryRLock() {
			gate.RUnlock()
			t.Error("Advance ran without the statement gate's write side held")
		}
		return nil
	}
	if err := loop.Run(2, 20); err != nil {
		t.Fatal(err)
	}
	if err := loop.Close(); err != nil {
		t.Fatal(err)
	}
	if advanced != 2 || loop.Statements != 40 || len(loop.Errors) != 0 {
		t.Errorf("advanced %d times, %d statements, errors %v; want 2, 40, none", advanced, loop.Statements, loop.Errors)
	}
	if offline := NewLoop(db, cfg, regression.NewDetector(0.5), r); offline.Tuner.Write != nil {
		t.Error("an offline loop's tuner has a statement gate")
	}
}
