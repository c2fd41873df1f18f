package exec

import "aim/internal/obs"

// execMetrics bundles the executor's observability handles. Per-operator
// counters split physical work by access path (clustered scan, index scan,
// index-only scan); the aggregate counters mirror Stats so the registry
// exposes cumulative rows/pages/CPU across every statement executed.
type execMetrics struct {
	statements *obs.Counter

	batches *obs.Counter // row batches read by scans
	// readaheadUncharged counts entries an outer step read ahead but never
	// charged to Stats, because the row target completed first.
	readaheadUncharged *obs.Counter

	clusteredScans *obs.Counter // clustered (base-table) scan operators run
	indexScans     *obs.Counter // secondary-index scan operators run
	indexOnlyScans *obs.Counter // covering (index-only) scan operators run
	clusteredRows  *obs.Counter // rows examined by clustered scans
	indexRows      *obs.Counter // entries examined by index scans (both kinds)

	rowsRead    *obs.Counter
	rowsSent    *obs.Counter
	pageReads   *obs.Counter
	sortRows    *obs.Counter
	rowsWritten *obs.Counter
	indexWrites *obs.Counter
	cpuMicros   *obs.Counter   // modelled CPUSeconds, accumulated in µs
	stmtCPU     *obs.Histogram // modelled CPU seconds per statement
}

// SetObs attaches (nil registry: detaches) executor metrics under the
// exec.* namespace. Call before concurrent use.
func (e *Executor) SetObs(r *obs.Registry) {
	if r == nil {
		e.m = nil
		return
	}
	e.m = &execMetrics{
		statements:     r.Counter("exec.statements"),
		batches:        r.Counter("exec.batches"),
		clusteredScans: r.Counter("exec.clustered_scans"),
		indexScans:     r.Counter("exec.index_scans"),
		indexOnlyScans: r.Counter("exec.index_only_scans"),
		clusteredRows:  r.Counter("exec.clustered_rows"),
		indexRows:      r.Counter("exec.index_rows"),
		rowsRead:       r.Counter("exec.rows_read"),
		rowsSent:       r.Counter("exec.rows_sent"),
		pageReads:      r.Counter("exec.page_reads"),
		sortRows:       r.Counter("exec.sort_rows"),
		rowsWritten:    r.Counter("exec.rows_written"),
		indexWrites:    r.Counter("exec.index_writes"),
		cpuMicros:      r.Counter("exec.cpu_micros"),
		stmtCPU:        r.Histogram("exec.stmt_cpu_seconds"),

		readaheadUncharged: r.Counter("exec.readahead_uncharged"),
	}
}

// record folds one statement's physical stats into the registry counters.
func (e *Executor) record(st Stats) {
	m := e.m
	if m == nil {
		return
	}
	m.statements.Inc()
	m.rowsRead.Add(st.RowsRead)
	m.rowsSent.Add(st.RowsSent)
	m.pageReads.Add(st.PageReads)
	m.sortRows.Add(st.SortRows)
	m.rowsWritten.Add(st.RowsWritten)
	m.indexWrites.Add(st.IndexWrites)
	cpu := st.CPUSeconds()
	m.cpuMicros.Add(int64(cpu * 1e6))
	m.stmtCPU.Observe(cpu)
}
