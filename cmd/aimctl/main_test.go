package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aim/internal/audit"
	"aim/internal/experiments"
	"aim/internal/obs"
	"aim/internal/scenarios"
)

// TestRunExplain drives `aimctl explain` the way a shell would, against the
// journal and span trace of an offline codepush run: the reverted index's
// lineage must render in full, name the window statements that drove its
// adoption and — with -trace — the tuner cycle that sealed them. An unknown
// subcommand and a missing journal exit 2.
func TestRunExplain(t *testing.T) {
	dir := t.TempDir()
	journal, trace := filepath.Join(dir, "aim.jsonl"), filepath.Join(dir, "spans.json")
	jrn, err := audit.Create(journal)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := os.Create(trace)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.SetTraceWriter(tf)
	sc := scenarios.NewCodePush()
	res, err := experiments.RunScenario(sc, experiments.ScenarioOptions{
		Cycles: sc.Profile().ReducedCycles, Seed: 1, Obs: reg, Audit: jrn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}

	// Every adopted index resolves to at least one window statement.
	recs, err := audit.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range res.FinalIndexKeys {
		l, err := audit.Explain(recs, key)
		if err != nil {
			t.Fatal(err)
		}
		if !l.Adopted() || len(l.WindowStatements) == 0 {
			t.Errorf("%s: adopted=%v, %d window statements; want an adoption driven by at least one", key, l.Adopted(), len(l.WindowStatements))
		}
	}

	for _, c := range []struct {
		args   []string
		status int
		stdout []string
		stderr string
	}{
		{
			args: []string{"explain", "events(user_id,kind)", "-journal", journal, "-trace", trace},
			stdout: []string{
				"status: adopted, then regression-reverted",
				"shadow       accepted [accepted]",
				"adopt        materialized as",
				"driven by    live statements t-0000-0-0, ",
				" tuner/cycle]",
				"query_regressed",
			},
		},
		{args: []string{"frobnicate"}, status: 2, stderr: `unknown subcommand "frobnicate"`},
		{args: []string{"explain", "events(user_id,kind)"}, status: 2, stderr: "usage: aimctl explain"},
		{args: []string{"explain", "nope(x)", "-journal", journal}, status: 1, stderr: "aimctl: "},
	} {
		var stdout, stderr strings.Builder
		if got := run(c.args, &stdout, &stderr); got != c.status {
			t.Errorf("%v: exit status %d, want %d (stderr %q)", c.args, got, c.status, stderr.String())
		}
		for _, want := range c.stdout {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%v: stdout missing %q:\n%s", c.args, want, stdout.String())
			}
		}
		if !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%v: stderr %q, want it to contain %q", c.args, stderr.String(), c.stderr)
		}
	}
}

// TestRunApplyIsGated: -apply is one gated tuning cycle. It prints the shadow
// verdict before anything is applied, and the journal holds one lineage per
// applied index: one candidate, one accepting verdict and one adoption, with
// nothing built outside the gate.
func TestRunApplyIsGated(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "aim.jsonl")
	var stdout, stderr strings.Builder
	if got := run([]string{"-demo", "-apply", "-audit-out", journal}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit status %d, stderr %q", got, stderr.String())
	}
	out := stdout.String()
	verdict, applied := strings.Index(out, "shadow validation: accepted [accepted]"), strings.Index(out, "\napplied: ")
	if verdict < 0 || applied < verdict {
		t.Fatalf("want the accepting verdict, then the applied set:\n%s", out)
	}
	recs, err := audit.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	keys := strings.Split(strings.TrimSpace(out[applied+len("\napplied: "):]), ", ")
	for _, key := range keys {
		l, err := audit.Explain(recs, key)
		if err != nil {
			t.Fatal(err)
		}
		if !l.Complete() || len(l.Candidates) != 1 || len(l.Shadows) != 1 || len(l.Adopts) != 1 {
			t.Errorf("%s: complete=%v, %d candidate / %d shadow / %d adopt records, want one lineage",
				key, l.Complete(), len(l.Candidates), len(l.Shadows), len(l.Adopts))
		}
	}
	adopts := 0
	for _, r := range recs {
		if r.Event == audit.EventAdopt {
			adopts++
		}
	}
	if len(keys) == 0 || adopts != len(keys) {
		t.Errorf("%d adopt records for %d applied indexes %v", adopts, len(keys), keys)
	}
}
