package server

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/shadow"
)

// kvDB is the server tests' fixture: kv(id, v) with v = 3*id for ids 0..199.
func kvDB() *engine.DB {
	db := engine.New("servertest")
	db.MustExec(`CREATE TABLE kv (id INT, v INT, PRIMARY KEY (id))`)
	for i := 0; i < 200; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i*3))
	}
	db.Analyze()
	return db
}

// startTestServer boots a server on an ephemeral loopback port around a
// small fixture and returns it with its address. Cleanup drains it.
func startTestServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	if opts.DB == nil {
		opts.DB = kvDB()
	}
	s := New(opts)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown() }) //nolint:errcheck
	return s, addr
}

func TestServerQueryAndDML(t *testing.T) {
	_, addr := startTestServer(t, Options{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Hello("tester"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT v FROM kv WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 21 {
		t.Fatalf("SELECT returned %+v", res.Rows)
	}
	if _, err := c.Query("UPDATE kv SET v = 99 WHERE id = 7"); err != nil {
		t.Fatal(err)
	}
	res, err = c.Query("SELECT v FROM kv WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 99 {
		t.Fatalf("UPDATE not visible: %+v", res.Rows)
	}
	// Typed errors for parse and exec failures, session stays usable after.
	if _, err := c.Query("SELEKT broken"); err == nil || !strings.Contains(err.Error(), "remote error 1") {
		t.Fatalf("parse error: %v", err)
	}
	if _, err := c.Query("SELECT v FROM missing WHERE id = 1"); err == nil || !strings.Contains(err.Error(), "remote error 2") {
		t.Fatalf("exec error: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("session unusable after typed errors: %v", err)
	}
}

// TestServerConcurrentInterleavedSessions runs a mixed fleet — readers and
// one writer session — with interleaved frames on every connection, and
// asserts nothing is lost or cross-wired: each session's responses match
// its own requests.
func TestServerConcurrentInterleavedSessions(t *testing.T) {
	s, addr := startTestServer(t, Options{MaxConns: 32})
	const sessions = 12
	const perSession = 40
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for sid := 0; sid < sessions; sid++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			c, err := Dial(addr, 10*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if err := c.Hello(fmt.Sprintf("mix-%02d", sid)); err != nil {
				errs <- err
				return
			}
			r := rand.New(rand.NewSource(int64(sid)))
			for i := 0; i < perSession; i++ {
				if sid == 0 && i%4 == 0 {
					// The writer session interleaves DML through the write side
					// of the statement gate.
					if _, err := c.Query(fmt.Sprintf("UPDATE kv SET v = %d WHERE id = %d", i, r.Intn(200))); err != nil {
						errs <- fmt.Errorf("session %d stmt %d: %v", sid, i, err)
						return
					}
					continue
				}
				id := r.Intn(200)
				res, err := c.Query(fmt.Sprintf("SELECT id FROM kv WHERE id = %d", id))
				if err != nil {
					errs <- fmt.Errorf("session %d stmt %d: %v", sid, i, err)
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0].Int() != int64(id) {
					errs <- fmt.Errorf("session %d: asked id=%d, got %+v (cross-wired responses?)", sid, id, res.Rows)
					return
				}
			}
		}(sid)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("drain after fleet: %v", err)
	}
}

func TestServerRejectsOversizedAndZeroFrames(t *testing.T) {
	_, addr := startTestServer(t, Options{})
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Claim a frame beyond MaxFrame; the server must answer with a typed
	// CodeBadFrame error and cut the session.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(conn, MaxFrame)
	if err != nil {
		t.Fatalf("want typed error response, got read failure %v", err)
	}
	resp, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tag != TagError || resp.Code != CodeBadFrame {
		t.Fatalf("got %+v, want CodeBadFrame", resp)
	}

	conn2, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write(make([]byte, 4)); err != nil { // zero-length frame
		t.Fatal(err)
	}
	payload, err = ReadFrame(conn2, MaxFrame)
	if err != nil {
		t.Fatalf("want typed error response, got read failure %v", err)
	}
	if resp, err := DecodeResponse(payload); err != nil || resp.Code != CodeBadFrame {
		t.Fatalf("zero frame: %+v, %v", resp, err)
	}
}

func TestServerReadDeadlineCutsStalledSession(t *testing.T) {
	reg := obs.NewRegistry()
	_, addr := startTestServer(t, Options{ReadTimeout: 50 * time.Millisecond, Obs: reg})
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send half a frame header and stall; the deadline must cut us.
	if _, err := conn.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("stalled session was not cut by the read deadline")
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Gauge("server.connections_open").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("connections_open never returned to 0 after the cut")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerDrainingRefusesNewWork(t *testing.T) {
	s, addr := startTestServer(t, Options{})
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("SELECT v FROM kv WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The drained listener refuses new connections...
	if _, err := Dial(addr, 200*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after drain")
	}
	// ...and the old session is gone.
	if _, err := c.Query("SELECT v FROM kv WHERE id = 2"); err == nil {
		t.Fatal("statement succeeded on a drained server")
	}
}

func TestServerAutoWindowTunes(t *testing.T) {
	reg := obs.NewRegistry()
	s, addr := startTestServer(t, Options{WindowStatements: 25, Obs: reg})
	c, err := Dial(addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		if _, err := c.Query(fmt.Sprintf("SELECT id FROM kv WHERE v = %d", r.Intn(600))); err != nil {
			t.Fatal(err)
		}
	}
	// Two auto windows sealed plus the final partial one on drain.
	if err := s.Shutdown(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := s.Tuner().Cycles; got < 3 {
		t.Fatalf("tuner ran %d cycles, want >= 3 (2 sealed + drain flush)", got)
	}
	if n := s.Collector().Buffered(); n != 0 {
		t.Fatalf("%d statements left unsealed after drain", n)
	}
	for _, line := range s.Tuner().Verdicts() {
		if strings.HasPrefix(line, "FATAL") {
			t.Fatalf("tuner aborted: %s", line)
		}
	}
}

// TestServerFailpoints arms the two server failpoint sites at 100% and
// checks both degrade exactly as documented: accept refuses the connection
// but keeps listening, read_frame tears the session like a broken socket.
func TestServerFailpoints(t *testing.T) {
	if failpoint.Enabled() {
		t.Skip("failpoints already active")
	}
	fp, err := failpoint.Parse("server.read_frame=err(1.0)", 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	_, addr := startTestServer(t, Options{Obs: reg})
	failpoint.Activate(fp)
	defer failpoint.Activate(nil)

	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err == nil {
		t.Fatal("ping survived a torn read_frame")
	}
	if got := reg.Counter("server.read_errors").Value(); got == 0 {
		t.Fatal("read_frame failpoint fired but server.read_errors stayed 0")
	}

	// accept failures refuse the connection in flight but keep serving.
	fp2, err := failpoint.Parse("server.accept=err(1.0)", 1)
	if err != nil {
		t.Fatal(err)
	}
	failpoint.Activate(fp2)
	if c2, err := Dial(addr, 500*time.Millisecond); err == nil {
		// The dial may complete before the server closes it; the session must
		// be dead either way.
		if err := c2.Ping(); err == nil {
			t.Fatal("session survived an accept failpoint")
		}
		c2.Close()
	}
	failpoint.Activate(nil)
	c3, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatalf("server stopped listening after accept faults: %v", err)
	}
	defer c3.Close()
	if err := c3.Ping(); err != nil {
		t.Fatalf("server unusable after accept faults: %v", err)
	}
	if got := reg.Counter("server.accept_errors").Value(); got == 0 {
		t.Fatal("accept failpoint fired but server.accept_errors stayed 0")
	}
}

// TestTunerFatalLatches pins the fatal state as a latch: a window the
// collector could not have sealed fails the cycle, and every later window —
// however well formed — returns that same error without touching the
// database. A fresh tuner adopts from the same window, so the latch is what
// held the index set still.
func TestTunerFatalLatches(t *testing.T) {
	db := engine.New("latch")
	db.MustExec(`CREATE TABLE kv (id INT, v INT, PRIMARY KEY (id))`)
	for i := 0; i < 400; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i*3))
	}
	db.Analyze()
	var good []Record
	for i := 0; i < 20; i++ {
		sql := fmt.Sprintf("SELECT id FROM kv WHERE v = %d", i*3)
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		good = append(good, Record{Session: "s", Seq: uint64(i + 1), SQL: sql, Stats: res.Stats})
	}
	cfg := core.DefaultConfig()
	cfg.Selection.MinExecutions = 1
	newTuner := func() *Tuner {
		return &Tuner{DB: db, Adv: core.NewAdvisor(db, cfg), Detector: regression.NewDetector(0.5), Gate: shadow.DefaultGate()}
	}
	indexes := func() int { return len(db.Schema.Indexes()) }
	before := indexes()

	tuner := newTuner()
	_, err := tuner.CycleWindow([]Record{{Session: "s", Seq: 1, SQL: "SELEKT broken"}})
	if err == nil {
		t.Fatal("unparsable window record did not fail the cycle")
	}
	if _, err2 := tuner.CycleWindow(good); err2 != err {
		t.Fatalf("cycle after a fatal error returned %v, want the latched %v", err2, err)
	}
	if got := indexes(); got != before {
		t.Fatalf("latched tuner changed the index set: %d -> %d indexes", before, got)
	}
	if v := tuner.Verdicts(); len(v) != 1 || !strings.HasPrefix(v[0], "FATAL ") {
		t.Fatalf("verdicts = %q, want the one FATAL line", v)
	}
	if line, err := newTuner().CycleWindow(good); err != nil || indexes() == before {
		t.Fatalf("fresh tuner did not adopt from the same window: %q, %v", line, err)
	}
}

// TestServerCountsWindowDroppedBusy holds the tuner's cycle mutex so sealed
// windows back up: the tuner goroutine takes the first and blocks, the
// second fills the one-slot queue, and the third has nowhere to go — it must
// be counted, window and statements, not lost silently.
func TestServerCountsWindowDroppedBusy(t *testing.T) {
	const window = 5
	reg := obs.NewRegistry()
	s, _ := startTestServer(t, Options{WindowStatements: window, Obs: reg})
	s.tuner.mu.Lock()
	locked := true
	unlock := func() {
		if locked {
			locked = false
			s.tuner.mu.Unlock()
		}
	}
	defer unlock()
	seal := func() {
		for i := 0; i < window; i++ {
			if resp := s.execStatement("busy", 0, uint64(i+1), "", "SELECT v FROM kv WHERE id = 1"); resp.Tag != TagRows {
				t.Fatalf("statement failed: %+v", resp)
			}
		}
	}
	seal()
	for deadline := time.Now().Add(5 * time.Second); len(s.windows) > 0; {
		if time.Now().After(deadline) {
			t.Fatal("tuner goroutine never took the first window")
		}
		time.Sleep(time.Millisecond)
	}
	seal()
	seal()
	snap := reg.Snapshot().Counters
	if got := snap["server.windows_sealed"]; got != 3 {
		t.Fatalf("windows_sealed = %d, want 3", got)
	}
	if got := snap["server.windows_dropped_busy"]; got != 1 {
		t.Errorf("windows_dropped_busy = %d, want 1", got)
	}
	if got := snap["server.window_dropped"]; got != window {
		t.Errorf("window_dropped = %d, want the dropped window's %d statements", got, window)
	}
	unlock()
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got := s.Tuner().Cycles; got != 2 {
		t.Errorf("tuner ran %d cycles, want the 2 windows it could take", got)
	}
}
