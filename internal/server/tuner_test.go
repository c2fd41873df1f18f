package server

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aim/internal/catalog"
	"aim/internal/core"
	"aim/internal/engine"
	"aim/internal/failpoint"
	"aim/internal/obs"
	"aim/internal/regression"
	"aim/internal/shadow"
	"aim/internal/sqlparser"
	"aim/internal/stats"
	"aim/internal/storage"
	"aim/internal/workload"
)

// gateLog records which side of the statement gate is taken, in order.
type gateLog struct{ events []string }

type side struct {
	log  *gateLog
	name string
}

func (s side) Lock()   { s.log.events = append(s.log.events, s.name+"+") }
func (s side) Unlock() { s.log.events = append(s.log.events, s.name+"-") }

// take returns and clears the recorded sequence.
func (g *gateLog) take() string {
	out := strings.Join(g.events, " ")
	g.events = nil
	return out
}

// newTuner builds a tuner over a two-column table whose hot filter column
// is unindexed, with retirement after two unused windows and a revert
// cooldown, and a recording gate.
func newTuner(t *testing.T) (*Tuner, *gateLog) {
	t.Helper()
	db := engine.New("tuning")
	db.MustExec(`CREATE TABLE kv (id INT, v INT, w INT, PRIMARY KEY (id))`)
	for i := 0; i < 600; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d, %d)", i, i*3, i%7))
	}
	db.Analyze()
	cfg := core.DefaultConfig()
	cfg.Selection.MinExecutions = 1
	det := regression.NewDetector(0.5)
	det.RevertCooldown = 4
	log := &gateLog{}
	return &Tuner{
		DB:              db,
		Adv:             core.NewAdvisor(db, cfg),
		Detector:        det,
		Gate:            shadow.DefaultGate(),
		Read:            side{log, "r"},
		Write:           side{log, "w"},
		ApplyDrops:      true,
		DropAfterUnused: 2,
	}, log
}

// window executes n statements of the given shape and returns their monitor.
func window(t *testing.T, db *engine.DB, n int, format string) *workload.Monitor {
	t.Helper()
	mon := workload.NewMonitor()
	for i := 0; i < n; i++ {
		sql := fmt.Sprintf(format, i*3)
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		mon.Observe(sql, res)
	}
	return mon
}

// TestCycleOrderAndGateSides walks one index through its whole life —
// gated adoption, two unused windows, retirement, cooldown — and pins, for
// each kind of cycle, which side of the statement gate each phase took and
// that shadow validation took its snapshot with neither held.
func TestCycleOrderAndGateSides(t *testing.T) {
	c, gate := newTuner(t)
	c.DB.SetCloneGate(side{gate, "snap"})
	const hot = "SELECT id FROM kv WHERE v = %d"
	const other = "SELECT id FROM kv WHERE id = %d"
	const key = "kv(v)"

	out, err := c.Run(window(t, c.DB, 20, hot))
	if err != nil {
		t.Fatal(err)
	}
	if out.Cycle != 0 || out.Report == nil || !out.Report.Accepted || len(out.Adopted) != 1 || out.Adopted[0] != key {
		t.Fatalf("adopting cycle: report=%+v adopted=%v", out.Report, out.Adopted)
	}
	if got := gate.take(); got != "r+ r- snap+ snap- snap+ snap- w+ w- r+ r-" {
		t.Errorf("adopting cycle took %q, want recommend on the read side, the validation's and the one catch-up round's snapshots with nothing held, apply on the write side, then observe on the read side", got)
	}

	// First unused window ages the index; the second retires it through the
	// revert path on the write side.
	out, err = c.Run(window(t, c.DB, 20, other))
	if err != nil || out.Report != nil || len(out.Reverted) != 0 {
		t.Fatalf("first unused window: %+v, %v", out, err)
	}
	if got := gate.take(); got != "r+ r- r+ r-" {
		t.Errorf("idle cycle took %q, want recommend and observe on the read side only", got)
	}
	out, err = c.Run(window(t, c.DB, 20, other))
	if err != nil || out.Cycle != 2 || len(out.Reverted) != 1 || out.Reverted[0] != key {
		t.Fatalf("second unused window: %+v, %v", out, err)
	}
	if got := gate.take(); got != "r+ r- w+ w- r+ r-" {
		t.Errorf("retiring cycle took %q, want the drop on the write side between recommend and observe", got)
	}
	if c.DB.Schema.FindIndexByColumns("kv", []string{"v"}) != nil {
		t.Fatal("retired index still in the catalog")
	}

	// The hot query is back, but the index is inside its revert cooldown: it
	// never reaches the gate.
	out, err = c.Run(window(t, c.DB, 20, hot))
	if err != nil || out.Report != nil || len(out.Adopted) != 0 {
		t.Fatalf("cooldown window: %+v, %v", out, err)
	}
	if c.Adoptions != 1 || c.Reverted != 1 || c.ApplyFailures != 0 || c.DegradedValidations != 0 {
		t.Errorf("counters: adoptions=%d reverted=%d apply_failures=%d degraded=%d",
			c.Adoptions, c.Reverted, c.ApplyFailures, c.DegradedValidations)
	}
}

// TestCycleBusyWindowResetsUnusedStreak: retirement needs consecutive
// unused windows; one window that uses the index starts the count over.
func TestCycleBusyWindowResetsUnusedStreak(t *testing.T) {
	c, _ := newTuner(t)
	const hot = "SELECT id FROM kv WHERE v = %d"
	const other = "SELECT id FROM kv WHERE id = %d"
	for i, format := range []string{hot, other, hot, other} {
		out, err := c.Run(window(t, c.DB, 20, format))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Reverted) != 0 {
			t.Fatalf("window %d retired %v with no two consecutive unused windows", i, out.Reverted)
		}
	}
	out, err := c.Run(window(t, c.DB, 20, other))
	if err != nil || len(out.Reverted) != 1 {
		t.Fatalf("second consecutive unused window: %+v, %v", out, err)
	}
}

// TestCyclePolicyOffNeverRetires: with the zero policy — what server.New
// runs — an unused automation index is left alone.
func TestCyclePolicyOffNeverRetires(t *testing.T) {
	c, _ := newTuner(t)
	c.ApplyDrops = false
	if _, err := c.Run(window(t, c.DB, 20, "SELECT id FROM kv WHERE v = %d")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		out, err := c.Run(window(t, c.DB, 20, "SELECT id FROM kv WHERE id = %d"))
		if err != nil || len(out.Reverted) != 0 {
			t.Fatalf("window %d: %+v, %v", i, out, err)
		}
	}
	if c.Adoptions != 1 || c.Reverted != 0 {
		t.Fatalf("adoptions=%d reverted=%d, want 1/0", c.Adoptions, c.Reverted)
	}
}

// TestCycleLeavesStatisticsAlone: statistics have one owner, the engine. A
// cycle that adopts and a cycle that reverts — shadow clones included, which
// count into the same registry — collect nothing and leave every table's
// statistics handle as it was, while the what-if estimate follows the
// changed index set.
func TestCycleLeavesStatisticsAlone(t *testing.T) {
	c, _ := newTuner(t)
	reg := obs.NewRegistry()
	c.DB.SetObs(reg)
	const hot = "SELECT id FROM kv WHERE v = %d"
	const other = "SELECT id FROM kv WHERE id = %d"

	before := map[string]*stats.TableStats{}
	for _, tbl := range c.DB.Schema.Tables() {
		before[tbl.Name] = c.DB.TableStats(tbl.Name)
	}
	stmt, err := sqlparser.Parse(fmt.Sprintf(hot, 3))
	if err != nil {
		t.Fatal(err)
	}
	cost := func() float64 {
		est, err := c.DB.Optimizer.EstimateSelect(stmt.(*sqlparser.Select), nil)
		if err != nil {
			t.Fatal(err)
		}
		return est.Cost
	}
	untouched := func(after string) {
		t.Helper()
		for name, ts := range before {
			if c.DB.TableStats(name) != ts {
				t.Errorf("%s: statistics of %s were replaced", after, name)
			}
		}
		if n := reg.Counter("engine.stats_collections").Value(); n != 0 {
			t.Errorf("%s: %d statistics collections, want 0", after, n)
		}
	}
	scan := cost()

	out, err := c.Run(window(t, c.DB, 20, hot))
	if err != nil || len(out.Adopted) != 1 {
		t.Fatalf("adopting cycle: %+v, %v", out, err)
	}
	untouched("adopting cycle")
	if indexed := cost(); indexed >= scan {
		t.Errorf("estimate after adoption = %v, still the cached scan cost %v", indexed, scan)
	}

	for i := 0; i < 2; i++ {
		if out, err = c.Run(window(t, c.DB, 20, other)); err != nil {
			t.Fatal(err)
		}
	}
	if len(out.Reverted) != 1 {
		t.Fatalf("reverting cycle: %+v", out)
	}
	untouched("reverting cycle")
	if got := cost(); got != scan {
		t.Errorf("estimate after revert = %v, want the scan cost %v", got, scan)
	}
}

// writerGate stands for sessions writing while the cycle validates and
// adopts. Installed as both the clone gate and the Write side, it runs
// dml[i] on the database before granting the snapshot of catch-up round
// i+1 (with repeat, the last entry before every later round too; the first
// snapshot is the shadow gate's), and cutover before first granting the
// Write side, so the statements land at the same points every run. It
// records the index builds and the catch-up rows re-derived while the Write
// side was held.
type writerGate struct {
	db            *engine.DB
	dml           [][]string
	repeat        bool
	cutover       []string
	builds, rows  *obs.Histogram
	snaps, writes int
	gatedBuilds   int64
	gatedRows     float64
	failedWrites  int
}

func (g *writerGate) run(dml []string) {
	for _, sql := range dml {
		if _, err := g.db.Exec(sql); err != nil {
			g.failedWrites++
		}
	}
}

func (g *writerGate) Lock() {
	if g.writes++; g.writes == 1 {
		g.run(g.cutover)
	}
	g.gatedBuilds -= g.builds.Count()
	g.gatedRows -= g.rows.Sum()
}

func (g *writerGate) Unlock() {
	g.gatedBuilds += g.builds.Count()
	g.gatedRows += g.rows.Sum()
}

// snapshots is a writerGate's clone-gate side.
type snapshots struct{ *writerGate }

func (s snapshots) Lock() {
	g := s.writerGate
	g.snaps++
	switch round := g.snaps - 2; {
	case round >= 0 && round < len(g.dml):
		g.run(g.dml[round])
	case round >= 0 && g.repeat:
		g.run(g.dml[len(g.dml)-1])
	}
}

func (snapshots) Unlock() {}

// TestCycleHandsOverTheValidatedTrees drives the handoff through Tuner.Run
// on every path a validation can take: the trees the gate measured are
// adopted with whatever the sessions wrote meanwhile caught up in rounds
// outside the write gate, the write gate diffing only what landed during
// the last round — one build per adoption, on the snapshot, and none under
// the gate, however much of the table moved; writers that outpace every
// round and a handoff that fails both surface as ApplyErr over an unchanged
// catalog; and accepted, rejected, degraded and failed cycles alike leave
// every index equal to a fresh build of its definition and no snapshot
// handle behind.
func TestCycleHandsOverTheValidatedTrees(t *testing.T) {
	const hot = "SELECT id FROM kv WHERE v = %d"
	tail := []string{
		"UPDATE kv SET v = v + 1 WHERE id < 40", // indexed column
		"UPDATE kv SET w = 9 WHERE id = 77",     // unindexed column
		"DELETE FROM kv WHERE id = 500",
		"INSERT INTO kv VALUES (5000, 15000, 1)",
		"UPDATE kv SET id = 6000 WHERE id = 501", // primary key
	}
	rewrite := []string{"UPDATE kv SET w = w + 1 WHERE id >= 0"}
	churn := []string{"UPDATE kv SET v = v + 1 WHERE id < 150"} // a quarter of kv
	for _, tc := range []struct {
		name     string
		dml      [][]string // dml[i] runs before catch-up round i+1's snapshot
		repeat   bool
		cutover  []string
		faults   string
		gate     func(*shadow.Gate)
		adopted  bool
		applyErr bool
		degraded int
		builds   int64   // index builds in the whole cycle, none under the write gate
		caughtUp float64 // rows the catch-up rounds re-derived
		gated    float64 // rows the handoff under the write gate re-derived
		rounds   float64 // catch-up rounds run
	}{
		{name: "quiet table", adopted: true, builds: 1, rounds: 1},
		{name: "writes during validation", dml: [][]string{tail}, adopted: true, builds: 1, caughtUp: 45, rounds: 1},
		{name: "writes during the last round", cutover: tail, adopted: true, builds: 1, gated: 45, rounds: 1},
		{name: "table rewritten during validation", dml: [][]string{rewrite},
			adopted: true, builds: 1, caughtUp: 600, rounds: 2},
		{name: "churn between rounds", dml: [][]string{rewrite, churn},
			adopted: true, builds: 1, caughtUp: 750, rounds: 3},
		{name: "writers outpace every round", dml: [][]string{churn}, repeat: true,
			applyErr: true, builds: 1, caughtUp: 1500, rounds: 10},
		{name: "rejected", dml: [][]string{tail}, gate: func(g *shadow.Gate) { g.Lambda2 = 0.9999999 }, builds: 1},
		{name: "degraded", faults: "shadow.clone=err(1)", degraded: 1},
		{name: "handoff fails", dml: [][]string{tail}, faults: "engine.create_index=err()@2-4", applyErr: true,
			builds: 1, caughtUp: 45, rounds: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := newTuner(t)
			reg := obs.NewRegistry()
			c.DB.SetObs(reg)
			storage.Instrument(reg)
			defer storage.Instrument(nil)
			if tc.faults != "" {
				fp, err := failpoint.Parse(tc.faults, 7)
				if err != nil {
					t.Fatal(err)
				}
				failpoint.Activate(fp)
				defer failpoint.Activate(nil)
			}
			if tc.gate != nil {
				tc.gate(&c.Gate)
			}
			w := &writerGate{db: c.DB, dml: tc.dml, repeat: tc.repeat, cutover: tc.cutover,
				builds: reg.Histogram("storage.index_build_seconds"), rows: reg.Histogram("storage.adopt_catchup_rows")}
			c.Read, c.Write = nil, w
			c.DB.SetCloneGate(snapshots{w})
			live := reg.Gauge("storage.snapshots_live").Value()

			out, err := c.Run(window(t, c.DB, 20, hot))
			if err != nil {
				t.Fatal(err)
			}
			if got := len(out.Adopted) == 1; got != tc.adopted || (out.ApplyErr != nil) != tc.applyErr || c.DegradedValidations != tc.degraded {
				t.Fatalf("adopted=%v apply_err=%v degraded=%d, want %v / %v / %d (report %+v)",
					out.Adopted, out.ApplyErr, c.DegradedValidations, tc.adopted, tc.applyErr, tc.degraded, out.Report)
			}
			if tc.repeat && !strings.Contains(out.ApplyErr.Error(), "150 rows still outstanding") {
				t.Errorf("an outpaced catch-up reads %q, which does not name the rows left", out.ApplyErr)
			}
			if w.failedWrites != 0 {
				t.Fatalf("%d of the sessions' writes failed", w.failedWrites)
			}
			if out.Report.Built() != nil {
				t.Error("the report still holds its snapshot after the cycle")
			}
			if got := reg.Gauge("storage.snapshots_live").Value(); got != live {
				t.Errorf("storage.snapshots_live = %d after the cycle, %d before", got, live)
			}
			if got := w.builds.Count(); got != tc.builds || w.gatedBuilds != 0 {
				t.Errorf("%d index builds, %d of them under the write gate; want %d and none", got, w.gatedBuilds, tc.builds)
			}
			caughtUp := w.rows.Sum() - w.gatedRows
			if caughtUp != tc.caughtUp || w.gatedRows != tc.gated {
				t.Errorf("catch-up re-derived %v rows in rounds and %v under the write gate, want %v and %v",
					caughtUp, w.gatedRows, tc.caughtUp, tc.gated)
			}
			if got := reg.Histogram("engine.adopt_rounds").Sum(); got != tc.rounds {
				t.Errorf("engine.adopt_rounds = %v, want %v", got, tc.rounds)
			}

			// Catalog and store agree, and every index is what a build of its
			// definition over the table as it now stands would be.
			tbl := c.DB.Store.Table("kv")
			if got, want := len(tbl.Indexes()), len(c.DB.Schema.Indexes()); got != want || (got == 1) != tc.adopted {
				t.Fatalf("%d materialized indexes, %d in the catalog, adopted=%v", got, want, tc.adopted)
			}
			for _, def := range c.DB.Schema.Indexes() {
				got := tbl.Index(def.Name)
				want, err := tbl.PrepareIndex(&catalog.Index{Name: "fresh", Table: def.Table, Columns: def.Columns}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := got.Tree().Validate(); err != nil {
					t.Fatal(err)
				}
				if got.Len() != tbl.RowCount() || got.SizeBytes() != want.SizeBytes() {
					t.Fatalf("%s: %d entries / %d bytes for %d rows, a fresh build has %d bytes",
						def.Name, got.Len(), got.SizeBytes(), tbl.RowCount(), want.SizeBytes())
				}
				for ig, iw := got.Tree().Seek(nil), want.Tree().Seek(nil); ig.Valid(); ig.Next() {
					if string(ig.Key()) != string(iw.Key()) {
						t.Fatalf("%s: entries differ from a fresh build", def.Name)
					}
					iw.Next()
				}
			}
			if tc.adopted {
				res, err := c.DB.Exec(fmt.Sprintf(hot, 3))
				if err != nil || len(res.UsedIndexes) == 0 {
					t.Fatalf("hot query after adoption: %v, plan %v", err, res)
				}
			}
		})
	}
}

// records executes n statements of the given shape as one session's window,
// their page reads multiplied by inflate (a regressed plan, as observed).
func records(t *testing.T, db *engine.DB, n int, format string, inflate int64) []Record {
	t.Helper()
	w := make([]Record, n)
	for i := range w {
		sql := fmt.Sprintf(format, i*3)
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		w[i] = RecordOf("s", uint64(i+1), "", sql, res)
		w[i].Stats.PageReads *= inflate
	}
	return w
}

// TestReadIndexNotRetired: a template whose first sample scans kv while its
// later executions read the automation index kv(v) keeps kv(v) through more
// than DropAfterUnused windows, because the windows' plans read it.
func TestReadIndexNotRetired(t *testing.T) {
	tu, _ := newTuner(t)
	if _, err := tu.DB.CreateIndex(&catalog.Index{Name: "aim_kv_v", Table: "kv", Columns: []string{"v"}, CreatedBy: "aim"}); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle <= tu.DropAfterUnused; cycle++ {
		var w []Record
		for i, lo := range []int{0, 1790, 1791, 1792, 1793} {
			sql := fmt.Sprintf("SELECT id FROM kv WHERE v > %d", lo)
			res, err := tu.DB.Exec(sql)
			if err != nil {
				t.Fatal(err)
			}
			if read := len(res.UsedIndexes) > 0; read != (i > 0) {
				t.Fatalf("%s read %v; the fixture wants a wide first sample that scans and narrow ones that read kv(v)", sql, res.UsedIndexes)
			}
			w = append(w, RecordOf("s", uint64(i+1), "", sql, res))
		}
		line, err := tu.CycleWindow(w)
		if err != nil {
			t.Fatal(err)
		}
		if tu.DB.Schema.Index("aim_kv_v") == nil {
			t.Fatalf("cycle %d retired kv(v), which its window read: %s", cycle, line)
		}
	}
}

// verdictKeys returns the comma-separated keys of the verdict line's field
// (nil when the line has none).
func verdictKeys(line, field string) []string {
	for _, tok := range strings.Fields(line) {
		if rest, ok := strings.CutPrefix(tok, field+"="); ok {
			return strings.Split(rest, ",")
		}
	}
	return nil
}

// TestOnCycleSeesEveryCycle: the hook fires exactly once per cycle that
// reached the tuner — adopting, retiring, idle, regression-reverting, and
// the one that latches the fatal state — with the cycle's index and the
// same keys its verdict line names; a latched tuner runs no cycle and fires
// nothing.
func TestOnCycleSeesEveryCycle(t *testing.T) {
	const hot = "SELECT id FROM kv WHERE v = %d"
	const other = "SELECT id FROM kv WHERE id = %d"
	const key = "kv(v)"
	var outs []Outcome
	hooked := func(tu *Tuner) *Tuner {
		tu.Read, tu.Write = nil, nil
		tu.OnCycle = func(o Outcome) { outs = append(outs, o) }
		return tu
	}
	tu, _ := newTuner(t)
	hooked(tu)
	cycle := func(what string, w []Record) Outcome {
		t.Helper()
		n := len(outs)
		line, err := tu.CycleWindow(w)
		if err != nil {
			t.Fatalf("%s cycle: %v", what, err)
		}
		if len(outs) != n+1 {
			t.Fatalf("%s cycle: the hook fired %d times, want once", what, len(outs)-n)
		}
		o := outs[n]
		if o.Cycle != n || !reflect.DeepEqual(o.Adopted, verdictKeys(line, "adopted")) ||
			!reflect.DeepEqual(o.Reverted, verdictKeys(line, "reverted")) {
			t.Fatalf("%s cycle: outcome cycle=%d adopted=%v reverted=%v, verdict line %q", what, o.Cycle, o.Adopted, o.Reverted, line)
		}
		return o
	}

	if o := cycle("adopting", records(t, tu.DB, 20, hot, 1)); len(o.Adopted) != 1 || o.Adopted[0] != key {
		t.Fatalf("adopting cycle adopted %v, want [%s]", o.Adopted, key)
	}
	cycle("idle", records(t, tu.DB, 20, other, 1))
	if o := cycle("retiring", records(t, tu.DB, 20, other, 1)); len(o.Reverted) != 1 || o.Reverted[0] != key {
		t.Fatalf("retiring cycle reverted %v, want [%s]", o.Reverted, key)
	}
	// Hot again: the index waits out its cooldown, then is adopted again.
	for i := 0; len(cycle("cooldown", records(t, tu.DB, 20, hot, 1)).Adopted) == 0; i++ {
		if i == 8 {
			t.Fatal("the index was never re-adopted after its cooldown")
		}
	}
	if o := cycle("reverting", records(t, tu.DB, 20, hot, 1000)); len(o.Reverted) != 1 || o.Reverted[0] != key {
		t.Fatalf("regressed window reverted %v, want [%s]", o.Reverted, key)
	}

	// A gate that hands out an accepted-but-degraded verdict latches the
	// fatal state; the hook still sees that cycle, report included.
	validate = func(db *engine.DB, cands []*catalog.Index, mon *workload.Monitor, gate shadow.Gate) (*shadow.Report, error) {
		rep, err := shadow.Validate(db, cands, mon, gate)
		rep.Degraded = true
		return rep, err
	}
	defer func() { validate = shadow.Validate }()
	outs = nil
	tu, _ = newTuner(t)
	hooked(tu)
	if _, err := tu.CycleWindow(records(t, tu.DB, 20, hot, 1)); err == nil || !strings.Contains(err.Error(), "degraded verdict accepted") {
		t.Fatalf("fatal cycle returned %v", err)
	}
	if len(outs) != 1 || outs[0].Report == nil || !outs[0].Report.Accepted || len(outs[0].Adopted) != 0 {
		t.Fatalf("fatal cycle: %d hook calls, first %+v", len(outs), outs)
	}
	if _, err := tu.Run(window(t, tu.DB, 20, hot)); err == nil {
		t.Fatal("a latched tuner ran a cycle")
	}
	if _, err := tu.CycleWindow(records(t, tu.DB, 20, hot, 1)); err == nil || len(outs) != 1 || len(tu.DB.Schema.Indexes()) != 0 {
		t.Fatalf("latched tuner: err %v, %d hook calls, %d indexes", err, len(outs), len(tu.DB.Schema.Indexes()))
	}
}
