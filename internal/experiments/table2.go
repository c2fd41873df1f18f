package experiments

import (
	"math/rand"

	"aim/internal/core"
	"aim/internal/obs"
	"aim/internal/workload"
	"aim/internal/workloads/products"
)

// Table2Row is one product's DBA-vs-AIM comparison (Table II).
type Table2Row struct {
	Product       string
	Tables        int
	JoinQueries   int
	WorkloadType  string
	DBAIndexCount int
	AIMIndexCount int
	DBABytes      int64
	AIMBytes      int64
	Jaccard       float64
}

// Table2Options parameterizes the comparison.
type Table2Options struct {
	// WorkloadStatements is how many statements are replayed to build the
	// observed workload window.
	WorkloadStatements int
	Seed               int64
	// J is AIM's join parameter.
	J int
	// Obs, when non-nil, instruments each product database.
	Obs *obs.Registry
}

// DefaultTable2Options replays a moderate window.
func DefaultTable2Options() Table2Options {
	return Table2Options{WorkloadStatements: 1500, Seed: 5, J: 2}
}

// RunTable2Product reproduces the Table II experiment for one product: replay the
// workload on the unindexed database, run AIM from scratch, and compare
// the resulting set with the DBA's.
func RunTable2Product(spec products.Spec, opts Table2Options) (*Table2Row, error) {
	p, err := products.Build(spec)
	if err != nil {
		return nil, err
	}
	if opts.Obs != nil {
		p.DB.SetObs(opts.Obs)
	}
	// Observe the workload with no secondary indexes (the "from scratch"
	// protocol of §VI-A). The window scales with the number of query
	// templates so that every template is observed a few times.
	r := rand.New(rand.NewSource(opts.Seed))
	n := opts.WorkloadStatements
	if minN := p.NumTemplates() * 8; n < minN {
		n = minN
	}
	mon, err := replayProduct(p, r, n)
	if err != nil {
		return nil, err
	}

	cfg := core.DefaultConfig()
	cfg.J = opts.J
	cfg.Selection.MinExecutions = 1
	cfg.Selection.TopK = 0
	adv := core.NewAdvisor(p.DB, cfg)
	rec, err := adv.Recommend(mon)
	if err != nil {
		return nil, err
	}

	row := &Table2Row{
		Product:       spec.Name,
		Tables:        spec.Tables,
		JoinQueries:   spec.JoinQueries,
		WorkloadType:  spec.Type.String(),
		DBAIndexCount: len(p.DBAIndexes),
		AIMIndexCount: len(rec.Create),
		Jaccard:       products.Jaccard(p.DBAIndexes, rec.Create),
	}
	for _, ix := range p.DBAIndexes {
		row.DBABytes += p.DB.EstimateIndexSize(ix)
	}
	row.AIMBytes = rec.TotalCreateBytes()
	return row, nil
}

// replayProduct executes sampled statements and collects the monitor.
func replayProduct(p *products.Product, r *rand.Rand, n int) (*workload.Monitor, error) {
	mon := workload.NewMonitor()
	for i := 0; i < n; i++ {
		sql := p.SampleStatement(r)
		res, execErr := p.DB.Exec(sql)
		if execErr != nil {
			return nil, execErr
		}
		if _, err := mon.Ingest(res.Template, sql, res.Stats); err != nil {
			return nil, err
		}
	}
	return mon, nil
}
