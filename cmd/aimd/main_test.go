package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"syscall"
	"testing"

	"aim/internal/obs"
	"aim/internal/server"
)

// TestRunDemoServesAndDrains starts the daemon the way a shell would (`aimd
// -demo` on an ephemeral port, tuning on OpTune only), sends one traced
// statement and one OpTune over TCP, reads the statement back from /slowz,
// and then delivers SIGTERM to the process: run must take the drain path
// and return 0.
func TestRunDemoServesAndDrains(t *testing.T) {
	pr, pw := io.Pipe()
	var stderr strings.Builder
	status := make(chan int, 1)
	go func() {
		status <- run([]string{"-demo", "-addr", "127.0.0.1:0", "-window", "0", "-trace-sample", "1", "-telemetry-addr", "127.0.0.1:0"}, pw, &stderr)
		pw.Close()
	}()

	out := bufio.NewScanner(pr)
	listening := regexp.MustCompile(`^aimd: listening on (\S+) `)
	telemetryOn := regexp.MustCompile(`^aimd: telemetry on (\S+) `)
	var addr, telemetry string
	for addr == "" && out.Scan() {
		if m := listening.FindStringSubmatch(out.Text()); m != nil {
			addr = m[1]
		}
		if m := telemetryOn.FindStringSubmatch(out.Text()); m != nil {
			telemetry = m[1]
		}
	}
	if addr == "" {
		t.Fatalf("aimd never announced its address (status %d, stderr %q)", <-status, stderr.String())
	}

	c, err := server.Dial(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Hello("aimd-test"); err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryTraced("t-1", "SELECT id FROM events WHERE user_id = 7")
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("traced statement: %d rows, err %v", len(res.Rows), err)
	}
	var slow struct{ Entries []obs.SlowEntry }
	hr, err := http.Get(telemetry + "/slowz")
	if err == nil {
		err = json.NewDecoder(hr.Body).Decode(&slow)
		hr.Body.Close()
	}
	if err != nil || len(slow.Entries) != 1 || slow.Entries[0].Trace != "t-1" {
		t.Fatalf("/slowz = %+v, err %v; want the one traced statement", slow, err)
	}
	line, err := c.Tune()
	if err != nil || !strings.HasPrefix(line, "cycle 0: stmts=1 queries=1 ") {
		t.Fatalf("OpTune verdict %q, err %v", line, err)
	}
	c.Close()

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var rest strings.Builder
	for out.Scan() {
		rest.WriteString(out.Text() + "\n")
	}
	if got := <-status; got != 0 {
		t.Errorf("exit status %d, stderr %q", got, stderr.String())
	}
	for _, want := range []string{"terminated received, draining...", "aimd: drained in ", "cycles=1 "} {
		if !strings.Contains(rest.String(), want) {
			t.Errorf("drain output missing %q:\n%s", want, rest.String())
		}
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr: %s", stderr.String())
	}
}
