package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aim/internal/catalog"
	"aim/internal/engine"
	"aim/internal/obs"
	"aim/internal/server"
	"aim/internal/shadow"
	"aim/internal/sqltypes"
	"aim/internal/storage"
)

// TestLiveAdoptionUnderConcurrentWrites is the live pin of "sessions write
// while the tuner applies": over loopback TCP (under -race in `make check`)
// two sessions update the columns about to be indexed, without pause, while a
// control connection tunes on windows of reads over those columns until the
// cycle adopts. The adopted trees were built on a snapshot the writers have
// since left behind, so the handoff had rows to catch up (or, had they
// rewritten a tenth of the table, a build to fall back to) — and after the
// drain every secondary index must equal a fresh build of its definition over
// the table as the writers left it, catalog and store agreeing.
func TestLiveAdoptionUnderConcurrentWrites(t *testing.T) {
	const rows = 30000
	db := engine.New("handoff")
	db.MustExec(`CREATE TABLE kv (id INT, v INT, w INT, PRIMARY KEY (id))`)
	batch := make([]sqltypes.Row, rows)
	for i := range batch {
		batch[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i * 3)), sqltypes.NewInt(int64(i % 97))}
	}
	if err := db.InsertRows("kv", batch); err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	reg := obs.NewRegistry()
	db.SetObs(reg)
	storage.Instrument(reg)
	defer storage.Instrument(nil)

	// The writers' updates pay for the index they are about to get; λ₃ is not
	// what this test is about.
	gate := shadow.DefaultGate()
	gate.Lambda3 = 1000
	srv := server.New(server.Options{DB: db, Gate: &gate, Obs: reg})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dial := func() *server.Client {
		cl, err := server.Dial(addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	reader, control := dial(), dial()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var written [2]int
	for s := range written {
		cl := dial()
		r := rand.New(rand.NewSource(int64(s)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.Close() //nolint:errcheck // nothing buffered
			for {
				select {
				case <-stop:
					return
				default:
				}
				sql := fmt.Sprintf("UPDATE kv SET v = %d, w = %d WHERE id = %d", r.Intn(3*rows), r.Intn(97), r.Intn(rows))
				if _, err := cl.Query(sql); err != nil {
					t.Errorf("writer %d: %v", s, err)
					return
				}
				written[s]++
			}
		}()
	}

	var reads atomic.Int64
	for s := 0; s < 2; s++ {
		cl := dial()
		r := rand.New(rand.NewSource(int64(100 + s)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.Close() //nolint:errcheck // nothing buffered
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Query(fmt.Sprintf("SELECT id FROM kv WHERE v = %d", r.Intn(3*rows))); err != nil {
					t.Errorf("reader %d: %v", s, err)
					return
				}
				reads.Add(1)
			}
		}()
	}

	adopted := ""
	for round := 0; round < 5 && adopted == ""; round++ {
		for i := 0; i < 40; i++ {
			if _, err := reader.Query(fmt.Sprintf("SELECT id FROM kv WHERE v = %d", (round*40+i)*3)); err != nil {
				t.Fatal(err)
			}
		}
		line, err := control.Tune()
		if err != nil {
			t.Fatal(err)
		}
		t.Log(line)
		if strings.Contains(line, "adopted=") {
			adopted = line
		}
	}
	// The readers keep going on the adopted index before anything stops.
	for at := reads.Load(); adopted != "" && reads.Load() < at+20 && !t.Failed(); {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if res, err := db.Exec("SELECT id FROM kv WHERE v = 3"); err != nil || len(res.UsedIndexes) == 0 {
		t.Errorf("after the adoption the readers' template plans %v (%v)", res.PlanDesc, err)
	}
	hits, misses := reg.Counter("optimizer.prepared_hits").Value(), reg.Counter("optimizer.prepared_misses").Value()
	t.Logf("readers sent %d reads; planner memo %d hits, %d misses", reads.Load(), hits, misses)
	if hits == 0 || misses < 2 {
		t.Errorf("planner memo: %d hits, %d misses; want hits, and a miss on each side of the adoption", hits, misses)
	}
	reader.Close()  //nolint:errcheck // nothing buffered
	control.Close() //nolint:errcheck // nothing buffered
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("dirty drain: %v", err)
	}
	if adopted == "" {
		t.Fatal("five tuned windows of reads on kv(v) adopted nothing")
	}

	catchUp := reg.Histogram("storage.adopt_catchup_rows").Snapshot()
	fallbacks := reg.Counter("storage.adopt_fallbacks").Value()
	t.Logf("writers sent %d + %d updates; handoffs %d re-deriving %v rows, fallbacks %d",
		written[0], written[1], catchUp.Count, catchUp.Sum, fallbacks)
	if catchUp.Sum == 0 && fallbacks == 0 {
		t.Error("no write landed between the snapshot and the adoption: the test exercised nothing")
	}
	if got := reg.Gauge("storage.snapshots_live").Value(); got != 0 {
		t.Errorf("storage.snapshots_live = %d after the drain", got)
	}
	if err := checkLoopInvariants(db); err != nil {
		t.Fatal(err)
	}
	tbl := db.Store.Table("kv")
	for _, def := range db.Schema.Indexes() {
		got := tbl.Index(def.Name)
		want, err := tbl.PrepareIndex(&catalog.Index{Name: "fresh", Table: def.Table, Columns: def.Columns}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() || got.SizeBytes() != want.SizeBytes() {
			t.Fatalf("%s: %d entries / %d bytes, a fresh build has %d / %d", def.Name, got.Len(), got.SizeBytes(), want.Len(), want.SizeBytes())
		}
		for ig, iw := got.Tree().Seek(nil), want.Tree().Seek(nil); ig.Valid(); ig.Next() {
			if string(ig.Key()) != string(iw.Key()) {
				t.Fatalf("%s: entries differ from a fresh build of its definition", def.Name)
			}
			iw.Next()
		}
	}
}
