// Package telemetry is the embeddable operations endpoint for a running AIM
// process: a stdlib-only HTTP server exposing
//
//	/metricsz      Prometheus text exposition of the obs registry
//	/statusz       JSON snapshot of tuning state: current index set, last
//	               shadow verdict with per-query outcomes, regression
//	               baselines with age, armed failpoints, template-memo
//	               occupancy, audit journal position, sealed-window
//	               high-water marks
//	/slowz         JSON dump of the slow-query log ring (oldest first)
//	/healthz       liveness probe
//	/debug/pprof/  the standard Go profiling endpoints
//
// The paper's deployment story (§VI) has AIM running unattended against
// production databases; this server is how an operator (or a fleet
// dashboard) watches it without attaching a debugger. Reading telemetry
// never mutates tuning state, and the server holds no locks across request
// handling beyond the sources' own short critical sections, so scraping is
// safe during a live tuning loop.
//
// /metricsz is the registry's only rendering. The server keeps no history:
// whoever scrapes keeps it, and rates or interval quantiles come from
// differencing two scrapes (ParsePrometheus reads one back), as `aimctl top`
// does.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"aim/internal/audit"
	"aim/internal/engine"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/shadow"
)

// Options wires the server to its data sources. Every field is optional:
// a missing source simply leaves its /statusz section empty, so the server
// can be attached to any subset of a deployment (aimbench runs have no
// regression detector; aimctl one-shots have no shadow loop).
type Options struct {
	// Registry backs /metricsz. A nil registry yields an empty exposition.
	Registry *obs.Registry
	// DB provides the current index set and template-memo occupancy.
	DB *engine.DB
	// Detector provides regression baselines.
	Detector *regression.Detector
	// Audit provides the journal position (records written so far).
	Audit *audit.Journal
	// Slow backs /slowz. Nil serves an empty list.
	Slow *obs.SlowLog
}

// Server is the telemetry endpoint. Construct with New, then either mount
// Handler on an existing mux or call Start to listen on an address.
type Server struct {
	opts  Options
	start time.Time

	mu         sync.Mutex
	lastShadow *shadow.Report

	srv *http.Server
	ln  net.Listener
}

// New returns an unstarted server over the given sources.
func New(opts Options) *Server {
	return &Server{opts: opts, start: time.Now()}
}

// SetShadowReport records the most recent shadow validation verdict for
// /statusz. The tuning loop calls this after every validation; safe for
// concurrent use with request handling.
func (s *Server) SetShadowReport(rep *shadow.Report) {
	s.mu.Lock()
	s.lastShadow = rep
	s.mu.Unlock()
}

// Handler returns the telemetry mux: /metricsz, /statusz, /slowz, /healthz
// and /debug/pprof/*.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metricsz", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatus)
	mux.HandleFunc("/slowz", s.handleSlow)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start listens on addr (host:port; use ":0" for an ephemeral port) and
// serves in a background goroutine. It returns the bound address, so callers
// passing port 0 learn where the server landed.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: %v", err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener. In-flight requests are aborted; the telemetry
// server has no state worth draining for.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, s.opts.Registry.Snapshot())
}

// handleSlow dumps the slow-query ring oldest-first, with the capture
// settings beside it. It is the ring's only reader: the wire protocol does
// not carry the log.
func (s *Server) handleSlow(w http.ResponseWriter, _ *http.Request) {
	entries := s.opts.Slow.Snapshot()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	payload := struct {
		ThresholdSeconds float64         `json:"threshold_seconds"`
		SampleN          int             `json:"sample_n"`
		Entries          []obs.SlowEntry `json:"entries"`
	}{
		ThresholdSeconds: s.opts.Slow.Threshold().Seconds(),
		SampleN:          s.opts.Slow.SampleN(),
		Entries:          entries,
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&payload) //nolint:errcheck // best-effort response write
}

// The /statusz JSON shape. Field order is fixed by the struct; slices are
// emitted sorted by their sources.
type statusIndex struct {
	Name         string   `json:"name"`
	Table        string   `json:"table"`
	Columns      []string `json:"columns"`
	CreatedBy    string   `json:"created_by,omitempty"`
	Hypothetical bool     `json:"hypothetical,omitempty"`
}

type statusOutcome struct {
	Query     string  `json:"query"`
	BeforeCPU float64 `json:"before_cpu"`
	AfterCPU  float64 `json:"after_cpu"`
	Replays   int     `json:"replays"`
}

type statusShadow struct {
	Verdict      string          `json:"verdict"`
	ReasonCode   string          `json:"reason_code"`
	Reason       string          `json:"reason"`
	TotalGain    float64         `json:"total_gain"`
	Outcomes     []statusOutcome `json:"outcomes,omitempty"`
	ReplayErrors []string        `json:"replay_errors,omitempty"`
}

type statusMemo struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
}

type statusPayload struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// WindowsSealed/WindowDropped/WindowsDroppedBusy mirror the
	// server.windows_sealed, server.window_dropped (statements lost to the
	// collector's drop-oldest or to a busy tuner) and
	// server.windows_dropped_busy (whole sealed windows the tuner was too busy
	// to take) registry counters — the sealed-window high-water mark that
	// makes soak artifacts self-describing. Zero when the process serves no
	// live traffic (offline runs, aimbench).
	WindowsSealed      int64 `json:"windows_sealed"`
	WindowDropped      int64 `json:"window_dropped"`
	WindowsDroppedBusy int64 `json:"windows_dropped_busy"`

	Indexes      []statusIndex          `json:"indexes"`
	Shadow       *statusShadow          `json:"shadow"`
	Baselines    []regression.Baseline  `json:"regression_baselines"`
	Failpoints   []failpoint.SiteStatus `json:"failpoints"`
	Prepared     *statusMemo            `json:"prepared"` // the planner's per-template memo
	AuditRecords int64                  `json:"audit_records"`
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	p := &statusPayload{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Indexes:       []statusIndex{},
		Baselines:     []regression.Baseline{},
		Failpoints:    failpoint.ArmedSites(),
		AuditRecords:  s.opts.Audit.Seq(),
	}
	if p.Failpoints == nil {
		p.Failpoints = []failpoint.SiteStatus{}
	}
	if reg := s.opts.Registry; reg != nil {
		snap := reg.Snapshot()
		p.WindowsSealed = snap.Counters["server.windows_sealed"]
		p.WindowDropped = snap.Counters["server.window_dropped"]
		p.WindowsDroppedBusy = snap.Counters["server.windows_dropped_busy"]
	}
	if db := s.opts.DB; db != nil {
		for _, ix := range db.Schema.Indexes() {
			p.Indexes = append(p.Indexes, statusIndex{
				Name:         ix.Name,
				Table:        ix.Table,
				Columns:      append([]string(nil), ix.Columns...),
				CreatedBy:    ix.CreatedBy,
				Hypothetical: ix.Hypothetical,
			})
		}
		ps := db.Optimizer.PreparedStats()
		p.Prepared = &statusMemo{Hits: ps.Hits, Misses: ps.Misses, Evictions: ps.Evictions, Entries: ps.Entries}
	}
	if d := s.opts.Detector; d != nil {
		p.Baselines = d.Baselines()
	}
	s.mu.Lock()
	rep := s.lastShadow
	s.mu.Unlock()
	if rep != nil {
		sh := &statusShadow{
			Verdict:      rep.Verdict(),
			ReasonCode:   string(rep.Code),
			Reason:       rep.Reason,
			TotalGain:    rep.TotalGain,
			ReplayErrors: rep.ReplayErrors,
		}
		for _, o := range rep.Outcomes {
			sh.Outcomes = append(sh.Outcomes, statusOutcome{
				Query:     o.Normalized,
				BeforeCPU: o.BeforeCPU,
				AfterCPU:  o.AfterCPU,
				Replays:   o.Replays,
			})
		}
		p.Shadow = sh
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(p) //nolint:errcheck // best-effort response write
}
