// Package sim is the machine simulator behind the paper's wall-clock
// figures (Fig. 3 and Fig. 6): it replays a periodically repeating workload
// against the embedded engine in discrete ticks, converts the measured
// physical work into CPU-utilization percentages against a fixed capacity,
// and derives throughput as the completed fraction of the offered load.
// Index builds can be injected between ticks, reproducing the paper's
// "indexes created incrementally with sleeps in between" protocol.
package sim

import (
	"fmt"
	"math/rand"
	"strings"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/failpoint"
	"aim/internal/workload"
)

// Sampler draws one SQL statement of the replayed workload.
type Sampler func(r *rand.Rand) string

// Machine replays a workload against one database.
type Machine struct {
	DB      *engine.DB
	Sample  Sampler
	Monitor *workload.Monitor
	// QueriesPerTick is the offered load per tick.
	QueriesPerTick int
	// CapacitySeconds is the CPU budget per tick (cores × tick length).
	CapacitySeconds float64

	r *rand.Rand
}

// NewMachine builds a machine with a deterministic replay stream.
func NewMachine(db *engine.DB, sample Sampler, qpt int, capacity float64, seed int64) *Machine {
	return &Machine{
		DB:              db,
		Sample:          sample,
		Monitor:         workload.NewMonitor(),
		QueriesPerTick:  qpt,
		CapacitySeconds: capacity,
		r:               rand.New(rand.NewSource(seed)),
	}
}

// Tick is one simulated interval's observation.
type Tick struct {
	Index      int
	CPUPercent float64 // utilization against capacity, capped at 100
	Throughput float64 // completed statements this tick
	Errors     int
	Event      string // annotation, e.g. "index built"
}

// RunTick replays one tick of offered load and returns the observation.
// When demand exceeds capacity, the machine completes only the fraction
// that fits (queueing is not modelled; overload saturates at 100% CPU).
func (m *Machine) RunTick(tickIndex int) Tick {
	var cpu float64
	errs := 0
	for i := 0; i < m.QueriesPerTick; i++ {
		sql := m.Sample(m.r)
		res, err := m.DB.Exec(sql)
		if err != nil {
			errs++
			continue
		}
		cpu += res.Stats.CPUSeconds()
		m.Monitor.Ingest(res.Template, sql, res.Stats) //nolint:errcheck // the engine just parsed the template
	}
	t := Tick{Index: tickIndex, Errors: errs}
	util := cpu / m.CapacitySeconds
	completed := float64(m.QueriesPerTick - errs)
	if util > 1 {
		completed /= util // only the affordable fraction completes
		util = 1
	}
	t.CPUPercent = util * 100
	t.Throughput = completed
	return t
}

// BuildIndex materializes one index between ticks and charges its build
// cost as a CPU annotation (the paper shows these as utilization bumps).
func (m *Machine) BuildIndex(def *catalog.Index) (string, error) {
	return m.BuildIndexes([]*catalog.Index{def})
}

// buildPolicy retries a between-tick index build that failed wholesale
// (CreateIndexes already retries per-index builds and rolls the batch back
// all-or-nothing, so every attempt here starts from a clean catalog).
var buildPolicy = failpoint.DefaultPolicy()

// BuildIndexes materializes several indexes between ticks in one batch,
// letting the engine fan the per-index bulk builds out over the storage
// worker pool — the batched analogue of the paper's "indexes created
// incrementally with sleeps in between" protocol when a recommendation
// lands more than one index at once. A build that keeps failing after
// retries returns the error with the catalog unchanged; the simulation can
// carry on ticking and re-attempt on a later cycle.
func (m *Machine) BuildIndexes(defs []*catalog.Index) (string, error) {
	copies := make([]*catalog.Index, len(defs))
	names := make([]string, len(defs))
	for i, def := range defs {
		copies[i] = def.Materialized()
		names[i] = def.Name
	}
	err := buildPolicy.Do(func() error {
		_, err := m.DB.CreateIndexes(copies)
		return err
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("index built: %s", strings.Join(names, ", ")), nil
}

// Series is a labelled sequence of ticks from one machine.
type Series struct {
	Label string
	Ticks []Tick
}

// AvgCPU returns the mean CPU% over the last n ticks (n=0 → all).
func (s *Series) AvgCPU(n int) float64 {
	return avg(s.Ticks, n, func(t Tick) float64 { return t.CPUPercent })
}

// AvgThroughput returns the mean throughput over the last n ticks.
func (s *Series) AvgThroughput(n int) float64 {
	return avg(s.Ticks, n, func(t Tick) float64 { return t.Throughput })
}

func avg(ticks []Tick, n int, f func(Tick) float64) float64 {
	if len(ticks) == 0 {
		return 0
	}
	start := 0
	if n > 0 && n < len(ticks) {
		start = len(ticks) - n
	}
	sum := 0.0
	for _, t := range ticks[start:] {
		sum += f(t)
	}
	return sum / float64(len(ticks)-start)
}
