package experiments

import (
	"math/rand"

	"aim/internal/core"
	"aim/internal/obs"
	"aim/internal/sim"
	"aim/internal/workloads/products"
)

// Fig3Result holds the control/test CPU% and throughput series of one
// product's convergence experiment (Fig. 3a-3f).
type Fig3Result struct {
	Product string
	Control sim.Series // DBA-tuned machine, untouched
	Test    sim.Series // drops all indexes, then AIM rebuilds incrementally
	// Markers are tick indexes of notable events on the test machine.
	DropTick     int
	AIMStartTick int
	IndexTicks   []int
}

// Fig3Options parameterizes the convergence run.
type Fig3Options struct {
	WarmTicks      int // both machines with DBA indexes
	ObserveTicks   int // test machine unindexed, workload observed
	RecoverTicks   int // after AIM starts creating indexes
	QueriesPerTick int
	Capacity       float64 // CPU seconds per tick
	BuildEvery     int     // ticks between incremental index builds
	Seed           int64
	J              int
	// Obs, when non-nil, instruments both machines' databases.
	Obs *obs.Registry
}

// DefaultFig3Options keeps runs laptop-sized.
func DefaultFig3Options() Fig3Options {
	return Fig3Options{
		WarmTicks:      6,
		ObserveTicks:   10,
		RecoverTicks:   16,
		QueriesPerTick: 60,
		Capacity:       0.35,
		BuildEvery:     2,
		Seed:           3,
		J:              2,
	}
}

// RunFig3 reproduces the Fig. 3 protocol for one product: control and test
// machines share hardware, data and workload; the test machine drops every
// secondary index and AIM recreates them from the observed workload with
// incremental builds.
func RunFig3(spec products.Spec, opts Fig3Options) (*Fig3Result, error) {
	control, err := products.Build(spec)
	if err != nil {
		return nil, err
	}
	if err := control.ApplyDBAIndexes(); err != nil {
		return nil, err
	}
	test, err := products.Build(spec) // same seed → same data/workload
	if err != nil {
		return nil, err
	}
	if err := test.ApplyDBAIndexes(); err != nil {
		return nil, err
	}
	if opts.Obs != nil {
		control.DB.SetObs(opts.Obs)
		test.DB.SetObs(opts.Obs)
	}

	mkSampler := func(p *products.Product, seed int64) sim.Sampler {
		return func(r *rand.Rand) string { return p.SampleStatement(r) }
	}
	controlM := sim.NewMachine(control.DB, mkSampler(control, opts.Seed), opts.QueriesPerTick, opts.Capacity, opts.Seed)
	testM := sim.NewMachine(test.DB, mkSampler(test, opts.Seed), opts.QueriesPerTick, opts.Capacity, opts.Seed)

	res := &Fig3Result{Product: spec.Name}
	res.Control.Label = "control (DBA)"
	res.Test.Label = "test (AIM)"
	tick := 0
	step := func() {
		res.Control.Ticks = append(res.Control.Ticks, controlM.RunTick(tick))
		res.Test.Ticks = append(res.Test.Ticks, testM.RunTick(tick))
		tick++
	}

	for i := 0; i < opts.WarmTicks; i++ {
		step()
	}
	// Drop all secondary indexes on the test machine.
	res.DropTick = tick
	test.DropAllSecondaryIndexes()
	testM.Monitor.Reset() // observe the unindexed workload fresh
	for i := 0; i < opts.ObserveTicks; i++ {
		step()
	}

	// AIM runs on the statistics observed since the drop.
	res.AIMStartTick = tick
	cfg := core.DefaultConfig()
	cfg.J = opts.J
	cfg.Selection.TopK = 0
	adv := core.NewAdvisor(test.DB, cfg)
	rec, err := adv.Recommend(testM.Monitor)
	if err != nil {
		return nil, err
	}

	// Incremental builds with "sleeps" (plain ticks) in between, per §VI-C.
	next := 0
	for i := 0; i < opts.RecoverTicks; i++ {
		if next < len(rec.Create) && i%opts.BuildEvery == 0 {
			if _, err := testM.BuildIndex(rec.Create[next]); err == nil {
				res.IndexTicks = append(res.IndexTicks, tick)
			}
			next++
		}
		step()
	}
	return res, nil
}
