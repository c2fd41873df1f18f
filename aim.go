// Package aim is a from-scratch Go reproduction of "AIM: A practical
// approach to automated index management for SQL databases" (Yadav, Valluri,
// Zaït — ICDE 2023): a structure-driven secondary-index advisor together
// with the full substrate it needs — an embedded SQL engine (parser,
// clustered B+tree storage, cost-based optimizer with what-if hypothetical
// indexes, executor), a workload monitor, a shadow validation environment
// and a continuous regression detector — plus the baseline advisors (Extend,
// DTA) the paper compares against and harnesses that regenerate every table
// and figure of its evaluation.
//
// This root package is a thin facade over the implementation packages; see
// examples/quickstart and README.md for end-to-end usage.
//
//	db := aim.NewDB("mydb")
//	db.MustExec(`CREATE TABLE t (id INT, a INT, PRIMARY KEY (id))`)
//	mon := aim.NewMonitor()
//	res, _ := db.Exec("SELECT a FROM t WHERE a = 1")
//	mon.Ingest(res.Template, res.Params, res.Stats)
//	adv := aim.NewAdvisor(db, aim.DefaultConfig())
//	rec, _ := adv.Recommend(mon)
package aim

import (
	"aim/internal/catalog"
	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/regression"
	"aim/internal/server"
	"aim/internal/shadow"
	"aim/internal/workload"
)

// DB is an embedded SQL database (catalog, storage, optimizer, executor).
type DB = engine.DB

// NewDB creates an empty database.
func NewDB(name string) *DB { return engine.New(name) }

// Index describes a secondary index definition.
type Index = catalog.Index

// Monitor aggregates per-normalized-query execution statistics (§III-C).
type Monitor = workload.Monitor

// NewMonitor returns an empty workload monitor.
func NewMonitor() *Monitor { return workload.NewMonitor() }

// Advisor is the AIM index advisor (Algorithm 1).
type Advisor = core.Advisor

// Config tunes the advisor (join parameter, budget, covering, ...).
type Config = core.Config

// Recommendation is the advisor output with explanations.
type Recommendation = core.Recommendation

// NewAdvisor builds an advisor over a database.
func NewAdvisor(db *DB, cfg Config) *Advisor { return core.NewAdvisor(db, cfg) }

// DefaultConfig mirrors the paper's deployment defaults.
func DefaultConfig() Config { return core.DefaultConfig() }

// Gate holds the λ₁/λ₂/λ₃ thresholds of the no-regression guarantee
// (Eq. 2-4).
type Gate = shadow.Gate

// DefaultGate returns mild validation thresholds.
func DefaultGate() Gate { return shadow.DefaultGate() }

// Validate materializes candidates on a clone, replays the workload and
// applies the gate — the MyShadow protocol (§VII-B).
func Validate(db *DB, candidates []*Index, mon *Monitor, gate Gate) (*shadow.Report, error) {
	return shadow.Validate(db, candidates, mon, gate)
}

// RegressionDetector watches per-query cpu_avg across windows (§VII-C).
type RegressionDetector = regression.Detector

// NewRegressionDetector returns a detector with the given relative
// cpu_avg-increase threshold.
func NewRegressionDetector(threshold float64) *RegressionDetector {
	return regression.NewDetector(threshold)
}

// Tuner is the one tuning cycle — recommend, shadow-validate, adopt what the
// gate accepted, revert what regressed; Run takes an observed window.
type Tuner = server.Tuner
