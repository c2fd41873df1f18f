package server

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/pool"
	"aim/internal/regression"
	"aim/internal/shadow"
)

// Options configures a Server. DB is the one required field; everything
// else has serving defaults.
type Options struct {
	// DB is the serving database (schema and data already loaded).
	DB *engine.DB
	// AdvisorCfg configures the in-process advisor. The zero value selects
	// core.DefaultConfig with MinExecutions=1 — live windows are short, and
	// a statement seen once in a window is real traffic, not noise.
	AdvisorCfg *core.Config
	// Gate is the shadow no-regression gate (nil = shadow.DefaultGate).
	Gate *shadow.Gate
	// Detector watches post-adoption windows (nil = NewDetector(0.5)).
	Detector *regression.Detector
	// WindowStatements seals a tuning window every N observed statements
	// (0 = manual tuning via OpTune only).
	WindowStatements int
	// MaxConns bounds concurrent sessions; further accepts wait. <= 0
	// resolves through pool.Workers (the same sizing rule as the advisor's
	// fan-out) times a fan-in factor of 8, so a small machine still serves a
	// realistic fleet.
	MaxConns int
	// ReadTimeout/WriteTimeout are per-frame deadlines (0 = 2 minutes). A
	// session that stalls mid-frame is cut, not leaked.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// DrainTimeout bounds Shutdown's wait for sessions to finish their
	// in-flight statement (0 = 5 seconds).
	DrainTimeout time.Duration
	// Obs receives the server metrics (server.connections_open,
	// server.frames, server.window_statements, server.windows_sealed,
	// server.window_dropped, server.windows_dropped_busy, server.tune_cycles,
	// server.drain_seconds) and, when set, a
	// "server/stmt" span per executed statement annotated with (session,
	// seq, trace). Nil = metrics off.
	Obs *obs.Registry
	// OnCycle receives every tuning cycle's outcome (Tuner.OnCycle).
	OnCycle func(Outcome)
	// SlowLog, when set, captures executed statements (over-threshold plus
	// 1-in-N samples) with plan shape and operator stats. Served on
	// /slowz. Nil = capture off, zero per-statement cost.
	SlowLog *obs.SlowLog
}

// Server is the aimd daemon core: a TCP listener, per-connection sessions,
// a statement gate serializing writers, and the live-stream tuner.
type Server struct {
	opts Options
	db   *engine.DB

	// exec is the statement gate: SELECTs hold the read side, DML/DDL and
	// tuning-loop applies the write side, and COW snapshot creation inside
	// shadow validation serializes through the write side via the engine's
	// clone gate.
	exec sync.RWMutex

	collector *Collector
	tuner     *Tuner

	ln       net.Listener
	draining atomic.Bool
	closed   chan struct{} // accept loop exited

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	sessions sync.WaitGroup
	sem      chan struct{} // bounds concurrent sessions
	seq      atomic.Int64  // accept-order session labels

	windows chan []Record // auto-sealed windows to the tuner goroutine
	tunerWG sync.WaitGroup

	connsOpen *obs.Gauge
	frames    *obs.Counter
	acceptErr *obs.Counter
	readErr   *obs.Counter
	drainHist *obs.Histogram
	// A sealed window the busy tuner could not take: one busyWindows, and
	// its statements join the collector's drop-oldest count.
	busyWindows *obs.Counter // server.windows_dropped_busy
	busyStmts   *obs.Counter // server.window_dropped
}

// New assembles an unstarted server around a loaded database.
func New(opts Options) *Server {
	if opts.DB == nil {
		panic("server: Options.DB is required")
	}
	cfg := core.DefaultConfig()
	cfg.Selection.MinExecutions = 1
	if opts.AdvisorCfg != nil {
		cfg = *opts.AdvisorCfg
	}
	gate := shadow.DefaultGate()
	if opts.Gate != nil {
		gate = *opts.Gate
	}
	det := opts.Detector
	if det == nil {
		det = regression.NewDetector(0.5)
	}
	maxConns := opts.MaxConns
	if maxConns <= 0 {
		maxConns = pool.Workers(0) * 8
	}
	s := &Server{
		opts:      opts,
		db:        opts.DB,
		collector: NewCollector(opts.WindowStatements, opts.Obs),
		conns:     map[net.Conn]struct{}{},
		sem:       make(chan struct{}, maxConns),
		closed:    make(chan struct{}),
		windows:   make(chan []Record, 1),
	}
	s.tuner = &Tuner{
		DB:       opts.DB,
		Adv:      core.NewAdvisor(opts.DB, cfg),
		Detector: det,
		Gate:     gate,
		Read:     s.exec.RLocker(),
		Write:    &s.exec,
		OnCycle:  opts.OnCycle,
	}
	// Snapshot creation excludes writers, briefly: the clone gate is the
	// statement gate's write side.
	opts.DB.SetCloneGate(&s.exec)
	r := opts.Obs // nil = every handle below is a nil no-op
	s.connsOpen = r.Gauge("server.connections_open")
	s.frames = r.Counter("server.frames")
	s.acceptErr = r.Counter("server.accept_errors")
	s.readErr = r.Counter("server.read_errors")
	s.drainHist = r.Histogram("server.drain_seconds")
	s.busyWindows = r.Counter("server.windows_dropped_busy")
	s.busyStmts = r.Counter("server.window_dropped")
	s.tuner.tuneCycles = r.Counter("server.tune_cycles")
	return s
}

// Tuner exposes the live tuner (counters and verdicts) for telemetry and
// the serve suite.
func (s *Server) Tuner() *Tuner { return s.tuner }

// Collector exposes the window collector.
func (s *Server) Collector() *Collector { return s.collector }

// DB returns the serving database handle.
func (s *Server) DB() *engine.DB { return s.db }

// Start listens on addr (use "127.0.0.1:0" for an ephemeral port), spawns
// the accept loop and the tuner goroutine, and returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: %v", err)
	}
	s.ln = ln
	s.tunerWG.Add(1)
	go s.runTuner()
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer close(s.closed)
	for {
		// The "server.accept" failpoint models a transient accept failure
		// (fd exhaustion, a dying load balancer probe): the connection in
		// flight is refused, the loop keeps serving.
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (Shutdown) or fatal
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		if ferr := failpoint.Inject("server.accept"); ferr != nil {
			s.acceptErr.Inc()
			conn.Close()
			continue
		}
		s.sem <- struct{}{} // bounded worker model: blocks when MaxConns busy
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.sessions.Add(1)
		s.connsOpen.Add(1)
		go s.serve(conn)
	}
}

func (s *Server) runTuner() {
	defer s.tunerWG.Done()
	for w := range s.windows {
		// A cycle error is an invariant violation latched inside the tuner:
		// tuning stops (every later window returns the same error untouched)
		// while serving continues. The suite asserts this never fires.
		s.tuner.CycleWindow(w) //nolint:errcheck
	}
}

// serve runs one session: read frame, execute, respond, until the peer
// closes, a deadline cuts a stalled frame, or drain begins.
func (s *Server) serve(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		<-s.sem
		s.connsOpen.Add(-1)
		s.sessions.Done()
	}()
	session := fmt.Sprintf("conn-%04d", s.seq.Add(1))
	f := newFramer(conn)
	var stmtSeq uint64
	readTO := s.opts.ReadTimeout
	if readTO <= 0 {
		readTO = 2 * time.Minute
	}
	writeTO := s.opts.WriteTimeout
	if writeTO <= 0 {
		writeTO = 2 * time.Minute
	}
	for {
		if s.draining.Load() {
			return
		}
		conn.SetReadDeadline(time.Now().Add(readTO)) //nolint:errcheck
		if err := failpoint.Inject("server.read_frame"); err != nil {
			// An injected read failure models a torn connection: the session
			// ends exactly as it would on a real socket error.
			s.readErr.Inc()
			return
		}
		payload, err := f.read()
		if err != nil {
			// Oversized and zero-length frames get a best-effort typed error
			// before the cut; EOF and deadlines close silently.
			if err == ErrFrameTooLarge || err == ErrZeroFrame {
				s.respond(conn, f, writeTO, &Response{Tag: TagError, Code: CodeBadFrame, Msg: err.Error()})
			}
			s.readErr.Inc()
			return
		}
		s.frames.Inc()
		req, err := DecodeRequest(payload)
		if err != nil {
			s.respond(conn, f, writeTO, &Response{Tag: TagError, Code: CodeBadFrame, Msg: err.Error()})
			return
		}
		var resp *Response
		switch req.Op {
		case OpHello:
			if req.SQL != "" {
				session = req.SQL
			}
			// Affected advertises the server's protocol version (see
			// ProtoVersion). v1 clients never read it; v2 clients use it to
			// decide whether OpQueryTraced is safe to send.
			resp = &Response{Tag: TagOK, Affected: ProtoVersion}
		case OpPing:
			resp = &Response{Tag: TagPong}
		case OpTune:
			line, err := s.TuneNow()
			if err != nil {
				resp = &Response{Tag: TagError, Code: CodeTune, Msg: err.Error()}
			} else {
				resp = &Response{Tag: TagVerdict, Verdict: line}
			}
		case OpQuery, OpQueryTraced:
			if s.draining.Load() {
				resp = &Response{Tag: TagError, Code: CodeDraining, Msg: "server draining"}
			} else {
				stmtSeq++
				resp = s.execStatement(session, stmtSeq, req.Trace, req.SQL)
			}
		}
		if !s.respond(conn, f, writeTO, resp) {
			return
		}
	}
}

// respond encodes resp straight into the session's frame buffer and writes
// it with one Write.
func (s *Server) respond(conn net.Conn, f *framer, writeTO time.Duration, resp *Response) bool {
	frame := AppendResponse(f.frame(), resp)
	if len(frame)-4 > MaxFrame {
		frame = AppendResponse(f.frame(), &Response{Tag: TagError, Code: CodeExec, Msg: "result exceeds max frame"})
	}
	conn.SetWriteDeadline(time.Now().Add(writeTO)) //nolint:errcheck
	return f.send(frame) == nil
}

// execStatement prepares one statement (engine.DB.Prepare, which parses only
// a shape its template cache has not seen), classifies it and executes it
// under the statement gate (SELECTs share the read side; DML and DDL
// serialize on the write side), then feeds the collector, the per-statement
// span, and the slow-query log. Failed statements produce a typed error and are not
// observed — the monitor sees only executions that contributed load,
// matching the batch loop's semantics.
func (s *Server) execStatement(session string, seq uint64, trace, sql string) *Response {
	p, err := s.db.Prepare(sql)
	if err != nil {
		return &Response{Tag: TagError, Code: CodeParse, Msg: err.Error()}
	}
	// The latency clock starts before the gate: lock waits are part of what
	// the client experienced, so they belong in the slow log. Only read the
	// clock when something will consume it — recorder off stays zero-cost.
	slow := s.opts.SlowLog
	sp := s.opts.Obs.StartSpan("server/stmt")
	var start time.Time
	if slow != nil || sp != nil {
		start = time.Now()
	}
	if sp != nil {
		sp.Annotate("session", session).Annotate("seq", strconv.FormatUint(seq, 10))
		if trace != "" {
			sp.Annotate("trace", trace)
		}
	}
	isSelect := p.IsSelect()
	if isSelect {
		s.exec.RLock()
	} else {
		s.exec.Lock()
	}
	res, err := s.db.ExecPrepared(p)
	if isSelect {
		s.exec.RUnlock()
	} else {
		s.exec.Unlock()
	}
	sp.End()
	if err != nil {
		return &Response{Tag: TagError, Code: CodeExec, Msg: err.Error()}
	}
	if slow != nil {
		slow.Observe(obs.SlowEntry{
			TSUS:        start.UnixMicro(),
			Session:     session,
			Seq:         seq,
			Trace:       trace,
			SQL:         sql,
			Plan:        res.PlanDesc,
			RowsRead:    res.Stats.RowsRead,
			RowsSent:    res.Stats.RowsSent,
			PageReads:   res.Stats.PageReads,
			SortRows:    res.Stats.SortRows,
			RowsWritten: res.Stats.RowsWritten,
			IndexWrites: res.Stats.IndexWrites,
			CPUSeconds:  res.Stats.CPUSeconds(),
		}, time.Since(start))
	}
	// The record carries the statement with its template as the engine
	// normalized it to plan, so the cycle folds windows without parsing.
	// Observed before the response, so an OpTune finds every acknowledged
	// statement.
	rec := RecordOf(session, seq, trace, sql, res)
	if w := s.collector.Observe(rec); w != nil {
		select {
		case s.windows <- w:
		default:
			// The tuner is mid-cycle and the queue is full: re-buffer is
			// pointless (the statements were consumed), drop the window —
			// counted — and let the next one carry fresher traffic.
			s.busyWindows.Inc()
			s.busyStmts.Add(int64(len(w)))
		}
	}
	if isSelect {
		return &Response{Tag: TagRows, Columns: res.Columns, Rows: res.Rows}
	}
	return &Response{Tag: TagOK, Affected: res.Stats.RowsSent}
}

// TuneNow seals the collector's current window and runs one tuning cycle
// synchronously, returning the rendered verdict line. Serialized against
// the background tuner by the tuner's own cycle lock.
func (s *Server) TuneNow() (string, error) {
	w := s.collector.Flush()
	return s.tuner.CycleWindow(w)
}

// Shutdown drains the server: stop accepting, let every session finish its
// in-flight statement and response, then close. Sessions blocked waiting
// for a client frame are woken by an immediate read deadline and exit on
// the drain flag. Returns an error when the drain deadline forced
// connections closed; a nil return is a clean drain. The observed drain
// wall-clock lands in server.drain_seconds.
func (s *Server) Shutdown() error {
	start := time.Now()
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.ln.Close()
	<-s.closed
	// Wake sessions parked in a frame read: the expired deadline errors the
	// read, and the drain flag stops the loop before the next one.
	s.mu.Lock()
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now()) //nolint:errcheck
	}
	s.mu.Unlock()

	timeout := s.opts.DrainTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	done := make(chan struct{})
	go func() {
		s.sessions.Wait()
		close(done)
	}()
	var forced error
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		n := len(s.conns)
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
		forced = fmt.Errorf("server: drain timeout forced %d connections closed", n)
	}
	// Final partial window: observed traffic the auto-seal had not reached
	// yet still gets one last cycle, so a drained daemon leaves no
	// unconsidered statements behind. Manual-window servers (OpTune-driven)
	// skip this — their operator owns cycle boundaries.
	close(s.windows)
	s.tunerWG.Wait()
	if s.opts.WindowStatements > 0 {
		if w := s.collector.Flush(); w != nil {
			if _, err := s.tuner.CycleWindow(w); err != nil && forced == nil {
				forced = err
			}
		}
	}
	s.drainHist.Observe(time.Since(start).Seconds())
	s.db.SetCloneGate(nil)
	return forced
}
