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
// two sessions update the columns about to be indexed, without pause, and a
// third rewrites a tenth of the table in one bulk UPDATE per tuning cycle,
// while a control connection tunes on windows of reads over those columns
// until the cycle adopts. The rewrite lands during validation, so a
// catch-up round of its own re-derives it outside the write gate, and point
// writes land during the last round, so the gated diff has rows of its own;
// no index build completes while the write gate is held. After the drain
// every secondary index must equal a fresh build of its definition over the
// table as the writers left it, catalog and store agreeing.
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
	// The first snapshot a cycle takes is the shadow gate's: once it is
	// taken the bulk writer is let go, and the next snapshot, the first
	// catch-up round's, waits for its rewrite. The write side, in turn, waits
	// for a point write that landed after the last snapshot, so the gated
	// diff always has a row to re-derive.
	stop := make(chan struct{})
	var pointWrites atomic.Int64
	exec := srv.Tuner().Write
	hook := &snapHook{Locker: exec, fire: make(chan struct{}, 1), done: make(chan struct{}, 1), stop: stop, writes: &pointWrites}
	db.SetCloneGate(hook)
	held := &heldGate{Locker: exec, hook: hook, builds: reg.Histogram("storage.index_build_seconds"),
		rows: reg.Histogram("storage.adopt_catchup_rows")}
	srv.Tuner().Write = held
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
				pointWrites.Add(1)
			}
		}()
	}

	// The bulk writer rewrites a tenth of kv, the k-th tenth in the k-th
	// cycle, in one UPDATE.
	var rewritten atomic.Int64
	{
		cl := dial()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.Close() //nolint:errcheck // nothing buffered
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				case <-hook.fire:
				}
				lo := k % 10 * rows / 10
				_, err := cl.Query(fmt.Sprintf("UPDATE kv SET v = v + 1 WHERE id >= %d AND id < %d", lo, lo+rows/10))
				hook.done <- struct{}{}
				if err != nil {
					t.Errorf("bulk writer: %v", err) // and keep answering the hook
					continue
				}
				rewritten.Add(rows / 10)
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
		hook.armed.Store(true)
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

	rounds := reg.Histogram("engine.adopt_rounds").Snapshot()
	t.Logf("writers sent %d + %d updates and rewrote %d rows in bulk; %d catch-ups ran %v rounds; under the write gate %v rows re-derived, held at most %v",
		written[0], written[1], rewritten.Load(), rounds.Count, rounds.Sum, held.gatedRows, held.longest)
	if held.gatedBuilds != 0 {
		t.Errorf("%d index builds completed while the write gate was held", held.gatedBuilds)
	}
	if rounds.Sum < 2 || held.gatedRows == 0 {
		t.Error("the rewrite was not caught up in a round of its own, or nothing landed during the last round: the test exercised nothing")
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

// snapHook is the clone gate with a trigger: the first snapshot taken after
// armed is set fires the bulk writer, and the snapshot after it waits until
// the writer is done (or stopped). Each snapshot notes the point writes
// counted so far.
type snapHook struct {
	sync.Locker
	armed, pending   atomic.Bool
	fire, done, stop chan struct{}
	writes           *atomic.Int64
	atSnap           atomic.Int64
}

func (h *snapHook) Lock() {
	if h.pending.Swap(false) {
		select {
		case <-h.done:
		case <-h.stop:
		}
	}
	h.Locker.Lock()
}

func (h *snapHook) Unlock() {
	h.atSnap.Store(h.writes.Load())
	if h.armed.CompareAndSwap(true, false) {
		h.pending.Store(true)
		h.fire <- struct{}{}
	}
	h.Locker.Unlock()
}

func (h *snapHook) stopped() bool {
	select {
	case <-h.stop:
		return true
	default:
		return false
	}
}

// heldGate wraps the tuner's Write side: before taking it, it waits for a
// point write executed after the last snapshot (each of the two writers may
// have counted one that was in flight at the snapshot, hence the margin of
// two), and it accounts what happened while it was held: index builds
// completed and catch-up rows re-derived, and the longest hold.
type heldGate struct {
	sync.Locker
	hook         *snapHook
	builds, rows *obs.Histogram
	at           time.Time
	buildsAt     int64
	rowsAt       float64
	longest      time.Duration
	gatedBuilds  int64
	gatedRows    float64
}

func (g *heldGate) Lock() {
	for g.hook.writes.Load() <= g.hook.atSnap.Load()+2 && !g.hook.stopped() {
		time.Sleep(100 * time.Microsecond)
	}
	g.Locker.Lock()
	g.at, g.buildsAt, g.rowsAt = time.Now(), g.builds.Count(), g.rows.Sum()
}

func (g *heldGate) Unlock() {
	g.longest = max(g.longest, time.Since(g.at))
	g.gatedBuilds += g.builds.Count() - g.buildsAt
	g.gatedRows += g.rows.Sum() - g.rowsAt
	g.Locker.Unlock()
}
