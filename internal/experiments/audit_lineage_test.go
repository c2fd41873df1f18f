package experiments

import (
	"regexp"
	"strings"
	"testing"

	"aim/internal/audit"
	"aim/internal/obs"
	"aim/internal/scenarios"
)

// runAuditedContinuous executes the seeded §VI-D study (the codepush
// scenario at its reduced length) with a decision journal and span trace
// attached, returning the parsed journal, the span index and the raw journal
// bytes.
func runAuditedContinuous(t *testing.T) (*ScenarioResult, []*audit.Record, map[uint64]audit.SpanInfo, string) {
	t.Helper()
	var jb, tb strings.Builder
	reg := obs.NewRegistry()
	reg.SetTraceWriter(&tb)
	sc := scenarios.NewCodePush()
	res, err := RunScenario(sc, ScenarioOptions{
		Cycles: sc.Profile().ReducedCycles,
		Seed:   1,
		Obs:    reg,
		Audit:  audit.New(&jb),
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := audit.ReadRecords(strings.NewReader(jb.String()))
	if err != nil {
		t.Fatal(err)
	}
	spans, err := audit.ParseTrace(strings.NewReader(tb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return res, recs, spans, jb.String()
}

// TestContinuousAuditLineage is the acceptance check for the decision
// journal: over a seeded continuous-tuning run, the journal alone must
// reconstruct a complete candidate→rank→shadow→adopt chain for at least one
// adopted index AND one later-reverted index, with every span ID resolvable
// against the trace.
func TestContinuousAuditLineage(t *testing.T) {
	res, recs, spans, _ := runAuditedContinuous(t)
	if accepted := SummarizeCodePush(res).ShadowAccepted; !accepted || res.Reverted == 0 {
		t.Fatalf("run shape changed: accepted=%v reverted=%d", accepted, res.Reverted)
	}

	adoptedComplete, revertedComplete := 0, 0
	for _, ref := range audit.References(recs) {
		l, err := audit.Explain(recs, ref)
		if err != nil {
			t.Fatal(err)
		}
		if l.Adopted() && l.Complete() {
			adoptedComplete++
			if l.Reverted() {
				revertedComplete++
			}
		}
	}
	if adoptedComplete < 1 || revertedComplete < 1 {
		t.Errorf("complete chains: adopted=%d reverted=%d, want >=1 each", adoptedComplete, revertedComplete)
	}

	// Every journal record must carry a span ID that resolves in the trace.
	for _, r := range recs {
		if r.SpanID == 0 {
			t.Errorf("record #%d (%s %s) has no span ID", r.Seq, r.Event, r.IndexKey)
			continue
		}
		if _, ok := spans[r.SpanID]; !ok {
			t.Errorf("record #%d span %d not in trace", r.Seq, r.SpanID)
		}
	}
}

// TestContinuousExplainGolden pins the rendered `aimctl explain` output for
// the reverted index across two identical seeded runs (the repo's golden
// idiom: run-vs-run comparison at full precision), and spot-checks the
// narrative content of one run.
func TestContinuousExplainGolden(t *testing.T) {
	render := func() (string, string) {
		_, recs, spans, journal := runAuditedContinuous(t)
		var reverted string
		for _, ref := range audit.References(recs) {
			l, err := audit.Explain(recs, ref)
			if err != nil {
				t.Fatal(err)
			}
			if l.Reverted() {
				var sb strings.Builder
				l.Render(&sb, spans)
				reverted = sb.String()
			}
		}
		if reverted == "" {
			t.Fatal("no reverted index in run")
		}
		return reverted, journal
	}

	out1, journal1 := render()
	out2, journal2 := render()
	if out1 != out2 {
		t.Errorf("explain output differs between identical runs:\n--- run1 ---\n%s--- run2 ---\n%s", out1, out2)
	}
	strip := regexp.MustCompile(`"ts_us":\d+,?`)
	if strip.ReplaceAllString(journal1, "") != strip.ReplaceAllString(journal2, "") {
		t.Error("journal bytes differ beyond timestamps between identical runs")
	}

	for _, want := range []string{
		"status: adopted, then regression-reverted",
		"candidate",
		"rank",
		"selected",
		"shadow       accepted [accepted]",
		"adopt        materialized as",
		"revert",
		"query_regressed",
		"[span ",
	} {
		if !strings.Contains(out1, want) {
			t.Errorf("explain output missing %q:\n%s", want, out1)
		}
	}
	// Span annotations must resolve to phase names, proving the join against
	// the trace worked (a bare "[span N]" means the ID was missing).
	for _, phase := range []string{"advisor/generate", "advisor/knapsack", "shadow/validate", "advisor/apply", "regression/revert"} {
		if !strings.Contains(out1, phase) {
			t.Errorf("explain output missing span phase %q:\n%s", phase, out1)
		}
	}
}
