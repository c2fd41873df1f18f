package server

import (
	"net"
	"strings"
	"testing"
	"time"

	"aim/internal/audit"
	"aim/internal/obs"
)

// TestProtocolQueryTraced: traced queries from a labelled session land on
// the collector records with their trace IDs, and an empty trace goes out as
// a plain query.
func TestProtocolQueryTraced(t *testing.T) {
	s, addr := startTestServer(t, Options{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("lg-0001"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryTraced("t-0001-0-1", "SELECT v FROM kv WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryTraced("", "SELECT v FROM kv WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	w := s.Collector().Flush()
	if len(w) != 2 {
		t.Fatalf("window = %d records", len(w))
	}
	if r := w[0]; r.Trace != "t-0001-0-1" || r.Session != "lg-0001" || r.Seq != 1 {
		t.Fatalf("traced record = %+v", r)
	}
	if r := w[1]; r.Trace != "" {
		t.Fatalf("untraced record carries trace: %+v", r)
	}
}

// TestProtocolOldClientNewServer drives the server with raw frames of the
// original frame set (H/Q/T/P), exactly the bytes an old client emits, and
// checks every response is what such a client expects.
func TestProtocolOldClientNewServer(t *testing.T) {
	_, addr := startTestServer(t, Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rt := func(req Request) *Response {
		t.Helper()
		conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		if err := WriteFrame(conn, EncodeRequest(req)); err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(conn, MaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := rt(Request{Op: OpHello, SQL: "old-client"}); resp.Tag != TagOK {
		t.Fatalf("hello tag = %c", resp.Tag)
	}
	if resp := rt(Request{Op: OpPing}); resp.Tag != TagPong {
		t.Fatalf("ping tag = %c", resp.Tag)
	}
	resp := rt(Request{Op: OpQuery, SQL: "SELECT v FROM kv WHERE id = 3"})
	if resp.Tag != TagRows || len(resp.Rows) != 1 || resp.Rows[0][0].Int() != 9 {
		t.Fatalf("v1 query response = %+v", resp)
	}
	if resp := rt(Request{Op: OpQuery, SQL: "UPDATE kv SET v = 5 WHERE id = 3"}); resp.Tag != TagOK {
		t.Fatalf("v1 DML response = %+v", resp)
	}
}

// TestServerSlowLogCapture wires a SlowLog into the server and checks
// capture end-to-end: plan shape, operator stats, trace IDs and the
// slow/sampled split of a statement sent over the wire all reach the log.
func TestServerSlowLogCapture(t *testing.T) {
	slow := obs.NewSlowLog(32, time.Nanosecond, 0) // everything is "slow"
	reg := obs.NewRegistry()
	slow.Instrument(reg)
	_, addr := startTestServer(t, Options{SlowLog: slow, Obs: reg})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("lg-0001"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryTraced("t-0001-0-1", "SELECT v FROM kv WHERE id = 7"); err != nil {
		t.Fatal(err)
	}
	// Parse failures are not executions: they must not reach the log.
	if _, err := c.Query("SELEKT nope"); err == nil {
		t.Fatal("parse error expected")
	}
	entries := slow.Snapshot()
	if len(entries) != 1 {
		t.Fatalf("slow entries = %+v", entries)
	}
	e := entries[0]
	if e.Session != "lg-0001" || e.Seq != 1 || e.Trace != "t-0001-0-1" || !e.Slow {
		t.Fatalf("entry identity = %+v", e)
	}
	if e.SQL != "SELECT v FROM kv WHERE id = 7" || len(e.Plan) == 0 {
		t.Fatalf("entry payload = %+v", e)
	}
	if e.RowsRead == 0 || e.RowsSent != 1 || e.LatencySeconds <= 0 {
		t.Fatalf("entry stats = %+v", e)
	}
	if got := reg.Snapshot().Counters["slowlog.slow"]; got != 1 {
		t.Fatalf("slowlog.slow = %d", got)
	}
}

// TestTunerJournalsWindowEvents: a tuning cycle over a sealed live window
// writes one EventWindow record (before the cycle's decision records)
// mapping normalized queries to the trace IDs / session#seq of the live
// statements, in canonical window order.
func TestTunerJournalsWindowEvents(t *testing.T) {
	var sb strings.Builder
	jrn := audit.New(&sb)
	s, addr := startTestServer(t, Options{})
	s.DB().SetAudit(jrn)
	defer s.DB().SetAudit(nil)
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Hello("lg-0001"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryTraced("t-0001-0-1", "SELECT v FROM kv WHERE id = 5"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryTraced("t-0001-0-2", "SELECT v FROM kv WHERE id = 6"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT v FROM kv WHERE id = 7"); err != nil { // untraced
		t.Fatal(err)
	}
	if _, err := c.Tune(); err != nil {
		t.Fatal(err)
	}
	recs, err := audit.ReadRecords(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	var win *audit.Record
	for _, r := range recs {
		if r.Event == audit.EventWindow {
			win = r
			break
		}
	}
	if win == nil {
		t.Fatalf("no window record in journal:\n%s", sb.String())
	}
	if win.Seq != 1 {
		t.Errorf("window record not first: seq=%d", win.Seq)
	}
	if len(win.Queries) != 1 {
		t.Fatalf("window queries = %+v", win.Queries)
	}
	q := win.Queries[0]
	if q.Count != 3 || len(q.Statements) != 3 {
		t.Fatalf("window query = %+v", q)
	}
	want := []string{"t-0001-0-1", "t-0001-0-2", "lg-0001#3"}
	for i := range want {
		if q.Statements[i] != want[i] {
			t.Fatalf("statements = %v, want %v", q.Statements, want)
		}
	}
}
