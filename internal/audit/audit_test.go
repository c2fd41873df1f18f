package audit

import (
	"strings"
	"testing"
)

func boolPtr(b bool) *bool { return &b }

// sampleJournal writes one full adopted-then-reverted chain for
// events(user_id) plus a rejected candidate on events(kind,score).
func sampleJournal(j *Journal) {
	j.Append(&Record{Event: EventCandidate, SpanID: 2, IndexKey: "events(user_id)", Index: "aim_events_1", Table: "events",
		PartialOrder: "<{user_id}>", Sources: []string{"SELECT score FROM events WHERE user_id = ?"}})
	j.Append(&Record{Event: EventCandidate, SpanID: 2, IndexKey: "events(kind,score)", Index: "aim_events_2", Table: "events",
		PartialOrder: "<{kind}, {score}>", Sources: []string{"SELECT id FROM events WHERE kind = ? AND score > ?"}})
	j.Append(&Record{Event: EventRank, SpanID: 3, IndexKey: "events(user_id)", Index: "aim_events_1", Table: "events",
		GainCPU: 0.25, MaintenanceCPU: 0.01, SizeBytes: 64000, Selected: boolPtr(true), Decision: "selected",
		BudgetBytes: 100000, BudgetUsedBytes: 64000})
	j.Append(&Record{Event: EventRank, SpanID: 3, IndexKey: "events(kind,score)", Index: "aim_events_2", Table: "events",
		GainCPU: 0.02, MaintenanceCPU: 0.01, SizeBytes: 80000, Selected: boolPtr(false), Decision: "over_budget",
		BudgetBytes: 100000, BudgetUsedBytes: 64000})
	j.Append(&Record{Event: EventShadow, SpanID: 4, IndexKey: "events(user_id)", Index: "aim_events_1", Table: "events",
		Verdict: "accepted", ReasonCode: "accepted", Reason: "accepted: 2/2 queries compared", Replays: 6, QueriesCompared: 2})
	j.Append(&Record{Event: EventAdopt, SpanID: 5, IndexKey: "events(user_id)", Index: "aim_events_1", Table: "events"})
	j.Append(&Record{Event: EventRevert, SpanID: 6, IndexKey: "events(user_id)", Index: "aim_events_1", Table: "events",
		ReasonCode: "query_regressed", Query: "SELECT score FROM events WHERE user_id = ?", BeforeCPU: 0.001, AfterCPU: 0.004})
}

func TestJournalRoundTrip(t *testing.T) {
	var sb strings.Builder
	j := New(&sb)
	sampleJournal(j)
	if j.Seq() != 7 {
		t.Fatalf("seq = %d", j.Seq())
	}
	recs, err := ReadRecords(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, r := range recs {
		if r.Seq != int64(i+1) {
			t.Errorf("record %d seq = %d", i, r.Seq)
		}
		if r.TSUS == 0 {
			t.Errorf("record %d missing timestamp", i)
		}
	}
	if recs[4].Verdict != "accepted" || recs[4].QueriesCompared != 2 {
		t.Errorf("shadow record = %+v", recs[4])
	}
}

func TestJournalDeterministicModuloTimestamps(t *testing.T) {
	write := func(clock func() int64) string {
		var sb strings.Builder
		j := New(&sb)
		j.SetClock(clock)
		sampleJournal(j)
		return sb.String()
	}
	a := write(func() int64 { return 1111 })
	b := write(func() int64 { return 2222 })
	if a == b {
		t.Fatal("clocks did not differ; test is vacuous")
	}
	strip := func(s string) string {
		return strings.ReplaceAll(strings.ReplaceAll(s, `"ts_us":1111,`, ""), `"ts_us":2222,`, "")
	}
	if strip(a) != strip(b) {
		t.Errorf("journals differ beyond timestamps:\n%s\n---\n%s", strip(a), strip(b))
	}
}

func TestNilJournalIsSafe(t *testing.T) {
	var j *Journal
	j.Append(&Record{Event: EventAdopt})
	j.SetClock(func() int64 { return 0 })
	if j.Seq() != 0 || j.Err() != nil || j.Close() != nil {
		t.Error("nil journal misbehaved")
	}
}

func TestExplainLineage(t *testing.T) {
	var sb strings.Builder
	j := New(&sb)
	sampleJournal(j)
	recs, err := ReadRecords(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}

	// The adopted-then-reverted index resolves by key, name and table.name.
	for _, ref := range []string{"events(user_id)", "aim_events_1", "events.aim_events_1"} {
		l, err := Explain(recs, ref)
		if err != nil {
			t.Fatalf("Explain(%q): %v", ref, err)
		}
		if !l.Adopted() || !l.Reverted() || !l.Complete() {
			t.Errorf("Explain(%q): adopted=%v reverted=%v complete=%v", ref, l.Adopted(), l.Reverted(), l.Complete())
		}
		if len(l.Candidates) != 1 || len(l.Ranks) != 1 || len(l.Shadows) != 1 {
			t.Errorf("Explain(%q): chain %d/%d/%d", ref, len(l.Candidates), len(l.Ranks), len(l.Shadows))
		}
	}

	// The rejected candidate explains its cut.
	l, err := Explain(recs, "events(kind,score)")
	if err != nil {
		t.Fatal(err)
	}
	if l.Adopted() || len(l.Ranks) != 1 || l.Ranks[0].Decision != "over_budget" {
		t.Errorf("rejected lineage = %+v", l)
	}
	var out strings.Builder
	l.Render(&out, map[uint64]SpanInfo{3: {Name: "advisor/knapsack", ID: 3}})
	for _, want := range []string{"status: candidate, not adopted", "over_budget", "budget 64000/100000 bytes used", "[span 3 advisor/knapsack]"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("render missing %q:\n%s", want, out.String())
		}
	}

	// Unknown refs list the valid choices.
	if _, err := Explain(recs, "nope"); err == nil || !strings.Contains(err.Error(), "events(user_id)") {
		t.Errorf("unknown ref error = %v", err)
	}
}

func TestReadRecordsTruncatedTail(t *testing.T) {
	var sb strings.Builder
	j := New(&sb)
	sampleJournal(j)
	whole := sb.String()
	cut := whole[:len(whole)-10] // slice into the final JSON line
	recs, err := ReadRecords(strings.NewReader(cut))
	if err != nil {
		t.Fatalf("truncated journal errored: %v", err)
	}
	if len(recs) != 6 {
		t.Errorf("records = %d, want 6 (last line dropped)", len(recs))
	}
}

func TestParseTrace(t *testing.T) {
	trace := `{"name":"advisor","id":1,"parent":0,"start_us":10,"dur_us":5.0}
{"name":"advisor/generate","id":2,"parent":1,"start_us":11,"dur_us":2.5}
not json at all
`
	spans, err := ParseTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[2].Name != "advisor/generate" || spans[2].Parent != 1 {
		t.Errorf("spans = %+v", spans)
	}
}

// TestAdoptedThenReverted: only keys whose adopt precedes a revert count; a
// revert with no prior adopt (or records with no key) never do.
func TestAdoptedThenReverted(t *testing.T) {
	var sb strings.Builder
	j := New(&sb)
	sampleJournal(j) // events(user_id) adopted then reverted
	j.Append(&Record{Event: EventAdopt, IndexKey: "events(kind,score)", Index: "aim_events_2", Table: "events"})
	j.Append(&Record{Event: EventRevert, IndexKey: "orders(total)", Index: "ix_total", Table: "orders"})
	j.Append(&Record{Event: EventRevert})
	recs, err := ReadRecords(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	got := AdoptedThenReverted(recs)
	if len(got) != 1 || got[0] != "events(user_id)" {
		t.Errorf("AdoptedThenReverted = %v, want [events(user_id)]", got)
	}
	if got := AdoptedThenReverted(nil); len(got) != 0 {
		t.Errorf("AdoptedThenReverted(nil) = %v", got)
	}
}

// TestExplainWindowStatements pins the flight-recorder lineage bridge: an
// EventWindow record preceding an adoption resolves the adopted index back
// to the concrete live statement IDs whose normalized queries the index
// serves — and only those. Journals without window records (offline runs)
// keep WindowStatements empty and render unchanged.
func TestExplainWindowStatements(t *testing.T) {
	var sb strings.Builder
	j := New(&sb)
	j.Append(&Record{Event: EventCandidate, IndexKey: "events(user_id)", Index: "aim_events_1", Table: "events",
		PartialOrder: "<{user_id}>", Sources: []string{"SELECT score FROM events WHERE user_id = ?"}})
	j.Append(&Record{Event: EventWindow, Cycle: 0, Queries: []WindowQuery{
		{Query: "SELECT score FROM events WHERE user_id = ?", Count: 3,
			Statements: []string{"t-0001-0-1", "t-0002-0-4", "lg-0003#9"}},
		{Query: "SELECT id FROM other WHERE kind = ?", Count: 1,
			Statements: []string{"t-0009-1-1"}},
	}})
	// A later window must win over an earlier one: append a second window
	// before the adopt with refreshed statements.
	j.Append(&Record{Event: EventWindow, Cycle: 1, Queries: []WindowQuery{
		{Query: "SELECT score FROM events WHERE user_id = ?", Count: 2,
			Statements: []string{"t-0001-1-2", "t-0002-1-5"}},
	}})
	j.Append(&Record{Event: EventRank, IndexKey: "events(user_id)", Index: "aim_events_1", Table: "events",
		Selected: boolPtr(true), Decision: "selected"})
	j.Append(&Record{Event: EventShadow, IndexKey: "events(user_id)", Index: "aim_events_1", Table: "events",
		Verdict: "accepted"})
	j.Append(&Record{Event: EventAdopt, IndexKey: "events(user_id)", Index: "aim_events_1", Table: "events"})
	recs, err := ReadRecords(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	l, err := Explain(recs, "events(user_id)")
	if err != nil {
		t.Fatal(err)
	}
	if !l.Complete() {
		t.Error("lineage incomplete")
	}
	want := []string{"t-0001-1-2", "t-0002-1-5"}
	if len(l.WindowStatements) != len(want) {
		t.Fatalf("WindowStatements = %v, want %v", l.WindowStatements, want)
	}
	for i := range want {
		if l.WindowStatements[i] != want[i] {
			t.Fatalf("WindowStatements = %v, want %v", l.WindowStatements, want)
		}
	}
	var out strings.Builder
	l.Render(&out, nil)
	if !strings.Contains(out.String(), "driven by    live statements t-0001-1-2, t-0002-1-5") {
		t.Errorf("render missing window statements:\n%s", out.String())
	}

	// Offline journal (no window events): empty resolution, no render line.
	var sb2 strings.Builder
	j2 := New(&sb2)
	sampleJournal(j2)
	recs2, err := ReadRecords(strings.NewReader(sb2.String()))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Explain(recs2, "events(user_id)")
	if err != nil {
		t.Fatal(err)
	}
	if len(l2.WindowStatements) != 0 {
		t.Errorf("offline WindowStatements = %v", l2.WindowStatements)
	}
	var out2 strings.Builder
	l2.Render(&out2, nil)
	if strings.Contains(out2.String(), "driven by") {
		t.Errorf("offline render grew a window line:\n%s", out2.String())
	}

	// Window round-trip: the JSON carrier preserves query counts and caps.
	var winRec *Record
	for _, r := range recs {
		if r.Event == EventWindow && r.Cycle == 1 {
			winRec = r
		}
	}
	if winRec == nil || len(winRec.Queries) != 1 || winRec.Queries[0].Count != 2 {
		t.Fatalf("window record = %+v", winRec)
	}
}
