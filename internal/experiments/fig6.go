package experiments

import (
	"fmt"
	"math/rand"

	"aim/internal/baselines"
	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/sim"
	"aim/internal/workload"
)

// Fig6Result is the join-parameter study (Fig. 6): AIM with increasing j
// versus a greedy incremental algorithm (GIA ≈ Extend) on a transactional
// workload full of composite-key joins.
type Fig6Result struct {
	AIM sim.Series // phases: unindexed, then j=1, j=2, j=3
	GIA sim.Series // phases: unindexed, then greedy configuration
	// Phase boundaries (tick indexes) on the AIM machine.
	JStartTicks map[int]int
	// Summary statistics mirroring the paper's reported numbers.
	AIMFinalThroughput float64
	GIAFinalThroughput float64
	AIMFinalCPU        float64
	GIAFinalCPU        float64
	J1Throughput       float64
	J2Throughput       float64
	J3Throughput       float64
}

// ThroughputGainOverGIA returns AIM's relative throughput advantage (the
// paper reports ≈ 27%).
func (r *Fig6Result) ThroughputGainOverGIA() float64 {
	if r.GIAFinalThroughput == 0 {
		return 0
	}
	return (r.AIMFinalThroughput - r.GIAFinalThroughput) / r.GIAFinalThroughput
}

// CPUReductionOverGIA returns AIM's relative CPU saving (paper: ≈ 4.8%).
func (r *Fig6Result) CPUReductionOverGIA() float64 {
	if r.GIAFinalCPU == 0 {
		return 0
	}
	return (r.GIAFinalCPU - r.AIMFinalCPU) / r.GIAFinalCPU
}

// J2GainOverJ1 returns the throughput gain from j=1 to j=2 (paper: ≈ 16%).
func (r *Fig6Result) J2GainOverJ1() float64 {
	if r.J1Throughput == 0 {
		return 0
	}
	return (r.J2Throughput - r.J1Throughput) / r.J1Throughput
}

// J3GainOverJ2 returns the (insignificant, per the paper) j=2→3 gain.
func (r *Fig6Result) J3GainOverJ2() float64 {
	if r.J2Throughput == 0 {
		return 0
	}
	return (r.J3Throughput - r.J2Throughput) / r.J2Throughput
}

// Fig6Options parameterizes the study.
type Fig6Options struct {
	Rows           int
	QueriesPerTick int
	Capacity       float64
	PhaseTicks     int // ticks per phase (unindexed, j=1, j=2, j=3)
	Seed           int64
	// Obs, when non-nil, instruments both machines' databases.
	Obs *obs.Registry
}

// DefaultFig6Options keeps the study laptop-sized.
func DefaultFig6Options() Fig6Options {
	return Fig6Options{Rows: 2000, QueriesPerTick: 20, Capacity: 1.3, PhaseTicks: 6, Seed: 13}
}

// buildJoinHeavyDB creates the transactional schema of the study. Three
// query families exercise the join parameter:
//
//   - a pairwise composite join with three sub-predicates (k1,k2,k3), each
//     individually unselective — the case where greedy one-column-at-a-time
//     exploration stalls (§VI-C);
//   - a hub joined to two spokes on single columns (k1 with spoke_a, m1
//     with spoke_b): only a coordinated (k1,m1) hub index helps, which
//     requires join powerset exploration with j >= 2;
//   - a three-spoke variant (k1,m1,p1) in j = 3 territory.
//
// A selective point-lookup family (u1) gives the greedy baseline a first
// profitable single-column step, so it partially recovers — as in Fig. 6.
func buildJoinHeavyDB(rows int, seed int64) (*engine.DB, sim.Sampler, error) {
	db := engine.New("joinheavy")
	ddl := []string{
		`CREATE TABLE hub (id INT, k1 INT, k2 INT, k3 INT, m1 INT, p1 INT, u1 INT, val INT, PRIMARY KEY (id))`,
		`CREATE TABLE spoke_a (id INT, k1 INT, k2 INT, k3 INT, region INT, PRIMARY KEY (id))`,
		`CREATE TABLE spoke_b (id INT, m1 INT, carrier INT, PRIMARY KEY (id))`,
		`CREATE TABLE spoke_c (id INT, p1 INT, tier INT, PRIMARY KEY (id))`,
	}
	for _, d := range ddl {
		if _, err := db.Exec(d); err != nil {
			return nil, nil, err
		}
	}
	r := rand.New(rand.NewSource(seed))
	// Composite keys: each column has only `card` distinct values, so a
	// single-column index is weak but the pair/triple is nearly unique.
	card := 14
	for i := 0; i < rows; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO hub VALUES (%d, %d, %d, %d, %d, %d, %d, %d)",
			i, r.Intn(card), r.Intn(card), r.Intn(card), r.Intn(card), r.Intn(card), r.Intn(rows/2), r.Intn(1000)))
	}
	for i := 0; i < rows/4; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO spoke_a VALUES (%d, %d, %d, %d, %d)",
			i, r.Intn(card), r.Intn(card), r.Intn(card), r.Intn(20)))
		db.MustExec(fmt.Sprintf("INSERT INTO spoke_b VALUES (%d, %d, %d)",
			i, r.Intn(card), r.Intn(15)))
		db.MustExec(fmt.Sprintf("INSERT INTO spoke_c VALUES (%d, %d, %d)",
			i, r.Intn(card), r.Intn(12)))
	}
	db.Analyze()
	sampler := func(r *rand.Rand) string {
		switch r.Intn(10) {
		case 0, 1: // pairwise composite join (3 sub-predicates).
			return fmt.Sprintf(`SELECT SUM(h.val) FROM spoke_a a JOIN hub h
				ON h.k1 = a.k1 AND h.k2 = a.k2 AND h.k3 = a.k3
				WHERE a.region = %d`, r.Intn(20))
		case 2, 3, 4: // hub joins two spokes on single columns (j >= 2).
			return fmt.Sprintf(`SELECT COUNT(*) FROM spoke_a a JOIN hub h ON h.k1 = a.k1
				JOIN spoke_b b ON b.m1 = h.m1
				WHERE a.region = %d AND b.carrier = %d`, r.Intn(20), r.Intn(15))
		case 5: // three spokes (j = 3 territory).
			return fmt.Sprintf(`SELECT COUNT(*) FROM spoke_a a JOIN hub h ON h.k1 = a.k1
				JOIN spoke_b b ON b.m1 = h.m1
				JOIN spoke_c c ON c.p1 = h.p1
				WHERE a.region = %d AND a.k2 = %d AND b.carrier = %d AND c.tier = %d`,
				r.Intn(20), r.Intn(14), r.Intn(15), r.Intn(12))
		case 6: // point write.
			return fmt.Sprintf("UPDATE hub SET val = %d WHERE id = %d", r.Intn(1000), r.Intn(rows))
		default: // selective point lookup: greedy's profitable first step.
			return fmt.Sprintf("SELECT val, k1 FROM hub WHERE u1 = %d", r.Intn(rows/2))
		}
	}
	return db, sampler, nil
}

// RunFig6 executes the join-parameter study.
func RunFig6(opts Fig6Options) (*Fig6Result, error) {
	aimDB, aimSampler, err := buildJoinHeavyDB(opts.Rows, opts.Seed)
	if err != nil {
		return nil, err
	}
	giaDB, giaSampler, err := buildJoinHeavyDB(opts.Rows, opts.Seed)
	if err != nil {
		return nil, err
	}
	if opts.Obs != nil {
		aimDB.SetObs(opts.Obs)
		giaDB.SetObs(opts.Obs)
	}
	aimM := sim.NewMachine(aimDB, aimSampler, opts.QueriesPerTick, opts.Capacity, opts.Seed)
	giaM := sim.NewMachine(giaDB, giaSampler, opts.QueriesPerTick, opts.Capacity, opts.Seed)

	res := &Fig6Result{JStartTicks: map[int]int{}}
	res.AIM.Label = "AIM"
	res.GIA.Label = "GIA"
	tick := 0
	run := func(n int) {
		for i := 0; i < n; i++ {
			res.AIM.Ticks = append(res.AIM.Ticks, aimM.RunTick(tick))
			res.GIA.Ticks = append(res.GIA.Ticks, giaM.RunTick(tick))
			tick++
		}
	}

	// Phase 0: both unindexed, observing.
	run(opts.PhaseTicks)

	// GIA machine: greedy incremental configuration, applied once.
	giaQueries := giaM.Monitor.Representative(repAll())
	giaRec, err := (&baselines.Extend{MaxWidth: 4}).Recommend(giaDB, giaQueries, 0)
	if err != nil {
		return nil, err
	}
	for _, ix := range giaRec.Indexes {
		if _, err := giaM.BuildIndex(ix); err != nil {
			return nil, err
		}
	}

	// AIM machine: increasing join parameter, incremental per phase.
	built := map[string]bool{}
	for _, j := range []int{1, 2, 3} {
		res.JStartTicks[j] = tick
		cfg := core.DefaultConfig()
		cfg.J = j
		cfg.Selection.TopK = 0
		adv := core.NewAdvisor(aimDB, cfg)
		rec, err := adv.Recommend(aimM.Monitor)
		if err != nil {
			return nil, err
		}
		for _, ix := range rec.Create {
			if built[ix.Key()] {
				continue
			}
			built[ix.Key()] = true
			if _, err := aimM.BuildIndex(ix); err != nil {
				return nil, err
			}
		}
		run(opts.PhaseTicks)
		tp := res.AIM.AvgThroughput(opts.PhaseTicks - 1)
		switch j {
		case 1:
			res.J1Throughput = tp
		case 2:
			res.J2Throughput = tp
		case 3:
			res.J3Throughput = tp
		}
	}

	last := opts.PhaseTicks
	res.AIMFinalThroughput = res.AIM.AvgThroughput(last)
	res.GIAFinalThroughput = res.GIA.AvgThroughput(last)
	res.AIMFinalCPU = res.AIM.AvgCPU(last)
	res.GIAFinalCPU = res.GIA.AvgCPU(last)
	return res, nil
}

func repAll() workload.SelectionConfig {
	return workload.SelectionConfig{MinExecutions: 1, IncludeDML: true}
}
