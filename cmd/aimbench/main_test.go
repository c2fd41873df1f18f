package main

import (
	"io"
	"strings"
	"testing"
)

// TestRun drives the command the way a shell would: two loop experiments and
// Fig. 4 at their -fast sizes, and an unknown experiment name.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		args   []string
		status int
		stdout []string
		stderr string
		// stable runs the command twice and requires the same stdout but for
		// the lines marked wall clock.
		stable bool
	}{
		{
			args: []string{"-exp", "continuous", "-fast"},
			stdout: []string{
				"=== Continuous tuning (§VI-D) ===",
				"scenario codepush: 20 cycles",
				"window CPU: steady ",
				"new indexes: 1 (shadow gate accepted: true)",
				"improved queries: 2 (≥10x: 2)",
				"data surge in window 11: first revert in window 11, 1 automation indexes reverted",
			},
		},
		{
			args: []string{"-exp", "scenario", "-scenario", "flashcrowd", "-fast"},
			stdout: []string{
				"=== Adversarial scenarios ===",
				"scenario flashcrowd: 80 cycles",
				"adopted_then_reverted=posts(day,topic)",
			},
		},
		{
			args: []string{"-exp", "fig4", "-bench", "tpch", "-fast"},
			stdout: []string{
				"budget      algorithm  rel. cost  opt calls  indexes\n",
				"runtime (wall clock) at ",
			},
			stable: true,
		},
		{
			args:   []string{"-exp", "nope"},
			status: 2,
			stderr: `unknown experiment "nope"`,
		},
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
		if strings.Contains(stdout.String(), "VIOLATION") {
			t.Errorf("%v: a stability bound was violated:\n%s", c.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%v: stderr %q, want it to contain %q", c.args, stderr.String(), c.stderr)
		}
		if c.stable {
			var again strings.Builder
			run(c.args, &again, io.Discard)
			if a, b := pinned(stdout.String()), pinned(again.String()); a != b {
				t.Errorf("%v: two runs differ outside the wall-clock lines:\n%s\n---\n%s", c.args, a, b)
			}
		}
	}
}

// pinned drops the lines of out marked wall clock.
func pinned(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "(wall clock)") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}
