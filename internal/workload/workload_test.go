package workload

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"aim/internal/exec"
	"aim/internal/sqlparser"
)

// record ingests one execution of sql with the given statistics, as a
// caller holding the parsed statement does.
func record(m *Monitor, sql string, st exec.Stats) error {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return err
	}
	return m.RecordStmt(stmt, st)
}

func TestRecordGroupsByNormalizedForm(t *testing.T) {
	m := NewMonitor()
	for i := 0; i < 10; i++ {
		err := record(m, fmt.Sprintf("SELECT id FROM t WHERE a = %d", i),
			exec.Stats{RowsRead: 100, RowsSent: 1, PageReads: 5})
		if err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 1 {
		t.Fatalf("normalized groups = %d", m.Len())
	}
	q := m.Get("SELECT id FROM t WHERE a = ?")
	if q == nil {
		t.Fatal("normalized query missing")
	}
	if q.Executions != 10 || q.RowsRead != 1000 || q.RowsSent != 10 {
		t.Fatalf("stats = %+v", q)
	}
	if len(q.SampleSQL) != 8 {
		t.Fatalf("samples = %d", len(q.SampleSQL))
	}
	if got := q.Sample().SQL(); got != "SELECT id FROM t WHERE a = 0" {
		t.Fatalf("first sample parses to %q", got)
	}
	for i := 10; i < 16; i++ { // the 16th execution rotates into slot 0
		if err := record(m, fmt.Sprintf("SELECT id FROM t WHERE a = %d", i), exec.Stats{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Sample().SQL(); got != "SELECT id FROM t WHERE a = 15" {
		t.Fatalf("after rotation the first sample parses to %q", got)
	}
}

// TestSampleFromSeveralGoroutines: the advisor's workers may ask for a
// template's parsed sample at once; they must all get the one parse.
func TestSampleFromSeveralGoroutines(t *testing.T) {
	m := NewMonitor()
	q, err := m.Ingest(nil, "SELECT id FROM t WHERE a IN (?)", "SELECT id FROM t WHERE a IN (1, 2)", &exec.Stats{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]sqlparser.Statement, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = q.Sample()
		}(i)
	}
	wg.Wait()
	for _, s := range got {
		if s != got[0] || s.SQL() != "SELECT id FROM t WHERE a IN (1, 2)" {
			t.Fatalf("samples %v", got)
		}
	}
}

func TestRecordParseError(t *testing.T) {
	m := NewMonitor()
	if _, err := m.Ingest(nil, "NOT SQL AT ALL", "NOT SQL AT ALL", &exec.Stats{}, 0, nil); err == nil || m.Len() != 0 {
		t.Fatalf("a template that does not parse is accepted: %v, %d queries", err, m.Len())
	}
}

func TestDDRAndBenefit(t *testing.T) {
	m := NewMonitor()
	// Query reads 1000 rows, returns 10: ddr = 0.01, benefit ≈ 0.99 × cpu.
	st := exec.Stats{RowsRead: 1000, RowsSent: 10, PageReads: 100}
	if err := record(m, "SELECT id FROM t WHERE a = 5", st); err != nil {
		t.Fatal(err)
	}
	q := m.Queries()[0]
	if math.Abs(q.DDR()-0.01) > 1e-9 {
		t.Fatalf("ddr = %v", q.DDR())
	}
	wantB := 0.99 * st.CPUSeconds()
	if math.Abs(q.Benefit()-wantB) > 1e-12 {
		t.Fatalf("benefit = %v, want %v", q.Benefit(), wantB)
	}
	// An efficient query (reads ≈ sends) has near-zero benefit.
	m2 := NewMonitor()
	record(m2, "SELECT id FROM t WHERE a = 5", exec.Stats{RowsRead: 10, RowsSent: 10, PageReads: 2})
	if b := m2.Queries()[0].Benefit(); b != 0 {
		t.Fatalf("efficient query benefit = %v", b)
	}
}

func TestDDREdgeCases(t *testing.T) {
	q := &QueryStats{}
	if q.DDR() != 1 {
		t.Error("zero reads should ddr=1 (no benefit)")
	}
	q = &QueryStats{RowsRead: 5, RowsSent: 50}
	if q.DDR() != 1 {
		t.Error("sent > read must clamp to 1")
	}
}

func TestRepresentativeSelection(t *testing.T) {
	m := NewMonitor()
	// Hot inefficient query.
	for i := 0; i < 100; i++ {
		record(m, "SELECT id FROM t WHERE hot = 1", exec.Stats{RowsRead: 1000, RowsSent: 1, PageReads: 200})
	}
	// Rare query (below MinExecutions).
	record(m, "SELECT id FROM t WHERE rare = 1", exec.Stats{RowsRead: 1000, RowsSent: 1, PageReads: 200})
	// Efficient query (no benefit).
	for i := 0; i < 100; i++ {
		record(m, "SELECT id FROM t WHERE efficient = 1", exec.Stats{RowsRead: 1, RowsSent: 1, PageReads: 1})
	}
	// DML.
	for i := 0; i < 50; i++ {
		record(m, "INSERT INTO t (a) VALUES (1)", exec.Stats{RowsWritten: 1, IndexWrites: 2})
	}
	cfg := SelectionConfig{MinExecutions: 3, MinBenefit: 1e-6, TopK: 10, IncludeDML: true}
	rep := m.Representative(cfg)
	if len(rep) != 2 {
		t.Fatalf("representative = %d queries", len(rep))
	}
	if rep[0].Normalized != "SELECT id FROM t WHERE hot = ?" {
		t.Fatalf("first = %s", rep[0].Normalized)
	}
	if !rep[1].IsDML() {
		t.Fatal("DML should be appended")
	}
	// Without DML.
	cfg.IncludeDML = false
	rep = m.Representative(cfg)
	if len(rep) != 1 {
		t.Fatalf("without dml = %d", len(rep))
	}
}

func TestTopKCapsSelection(t *testing.T) {
	m := NewMonitor()
	for i := 0; i < 20; i++ {
		sql := fmt.Sprintf("SELECT id FROM t WHERE col%d = 1", i)
		for j := 0; j <= i; j++ {
			record(m, sql, exec.Stats{RowsRead: 100, RowsSent: 1, PageReads: 10})
		}
	}
	rep := m.Representative(SelectionConfig{MinExecutions: 1, TopK: 5})
	if len(rep) != 5 {
		t.Fatalf("topk = %d", len(rep))
	}
	// Must be the 5 highest-benefit ones (most executions).
	if rep[0].Executions != 20 {
		t.Fatalf("first has %d executions", rep[0].Executions)
	}
}

func TestResetClears(t *testing.T) {
	m := NewMonitor()
	record(m, "SELECT id FROM t WHERE a = 1", exec.Stats{RowsRead: 10})
	m.Reset()
	if m.Len() != 0 {
		t.Fatal("reset failed")
	}
}

func TestQueriesOrderedByBenefit(t *testing.T) {
	m := NewMonitor()
	record(m, "SELECT id FROM t WHERE small = 1", exec.Stats{RowsRead: 10, RowsSent: 1, PageReads: 1})
	for i := 0; i < 10; i++ {
		record(m, "SELECT id FROM t WHERE big = 1", exec.Stats{RowsRead: 10000, RowsSent: 1, PageReads: 500})
	}
	qs := m.Queries()
	if qs[0].Normalized != "SELECT id FROM t WHERE big = ?" {
		t.Fatalf("order wrong: %s first", qs[0].Normalized)
	}
}
