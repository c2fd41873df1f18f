package experiments

import (
	"fmt"
	"math/rand"

	"aim/internal/engine"
	"aim/internal/tuning"
	"aim/internal/workload"
)

// Loop is the offline driver behind the fault suite and the scenario suite:
// it generates and executes each cycle's workload window itself, then hands
// the observed window to the shared tuning cycle (tuning.Cycle.Run), whose
// safety ordering both suites assert on. The zero values of the embedded
// cycle's policy fields reproduce the original fault-suite behavior exactly.
type Loop struct {
	tuning.Cycle
	// Sample draws the next workload statement for the given cycle.
	Sample func(cycle int, r *rand.Rand) string
	// Advance, when set, runs scenario-side effects (schema migrations, load
	// surges) at the start of each cycle, before the window executes.
	Advance func(db *engine.DB, cycle int, r *rand.Rand) error
	R       *rand.Rand
	// WindowCPU is the modelled CPU of each window run so far, one entry per
	// RunCycle call.
	WindowCPU []float64
}

// RunCycle advances the scenario, executes and records a window of
// windowStatements sampled statements (failed ones contribute no load and
// are not observed), and runs one tuning cycle over it.
func (l *Loop) RunCycle(windowStatements int) error {
	cycle := len(l.WindowCPU)
	if l.Advance != nil {
		if err := l.Advance(l.DB, cycle, l.R); err != nil {
			return fmt.Errorf("advance cycle %d: %v", cycle, err)
		}
	}
	mon := workload.NewMonitor()
	cpu := 0.0
	for i := 0; i < windowStatements; i++ {
		sql := l.Sample(cycle, l.R)
		res, err := l.DB.Exec(sql)
		if err != nil {
			continue
		}
		mon.Record(sql, res.Stats)
		cpu += res.Stats.CPUSeconds()
	}
	l.WindowCPU = append(l.WindowCPU, cpu)
	_, err := l.Run(mon)
	return err
}
