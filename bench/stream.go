package main

import (
	"fmt"
	"math/rand"
)

// clients is the number of closed-loop connections of every workload: the
// wire protocol is one synchronous statement per session, and the sandbox
// has two processors.
const clients = 2

// stmtKind says what the correctness checks expect of a statement's reply.
type stmtKind uint8

const (
	readAny     stmtKind = iota // SELECT, row count unchecked
	readExact                   // SELECT that must return want rows
	readCounts                  // grouped SELECT whose COUNT(*) column must sum to want
	writeAny                    // DML, affected count unchecked
	writeOne                    // DML that must affect exactly one row
	writeInsert                 // INSERT, must affect one row, adds a row
	writeDelete                 // DELETE by key, removes a row when it affects one
)

func (k stmtKind) isWrite() bool { return k >= writeAny }

// stmt is one generated statement with what its reply must look like.
type stmt struct {
	sql  string
	kind stmtKind
	want int
}

// stream yields one client's statements. It depends only on the seed, the
// client index and the number of calls made: the program under test never
// sees the seed and never feeds back into generation.
type stream func() stmt

// clientSeed derives an uncorrelated PRNG seed per client (splitmix64).
func clientSeed(seed int64, client int) int64 {
	z := uint64(seed) + uint64(client+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func pkRead(f *fixture, r *rand.Rand, kind stmtKind) stmt {
	return stmt{fmt.Sprintf("SELECT score, day FROM events WHERE id = %d", r.Intn(f.events)), kind, 1}
}

func userRead(f *fixture, r *rand.Rand, kind stmtKind) stmt {
	u := r.Intn(f.users)
	return stmt{fmt.Sprintf("SELECT id, score FROM events WHERE user_id = %d", u), kind, int(f.userCount[u])}
}

func dayRead(f *fixture, r *rand.Rand) stmt {
	d := r.Intn(eventDays)
	return stmt{fmt.Sprintf("SELECT id, score FROM events WHERE day = %d", d), readExact, int(f.dayCount[d])}
}

func noteUpdate(f *fixture, r *rand.Rand) stmt {
	return stmt{fmt.Sprintf("UPDATE events SET note = 'n%d' WHERE id = %d", r.Intn(1000), r.Intn(f.events)), writeOne, 1}
}

// pointRead: 55 % primary-key read, 40 % ten-row secondary-index read, 5 %
// single-row update of an unindexed column.
func pointRead(f *fixture, r *rand.Rand, _ int) stream {
	return func() stmt {
		switch p := r.Intn(100); {
		case p < 55:
			return pkRead(f, r, readExact)
		case p < 95:
			return userRead(f, r, readExact)
		default:
			return noteUpdate(f, r)
		}
	}
}

// scanRead: 40 % ~550-row read through the non-covering day index, 25 %
// two-day aggregate, 30 % join with LIMIT, 5 % the same update.
func scanRead(f *fixture, r *rand.Rand, _ int) stream {
	return func() stmt {
		switch p := r.Intn(100); {
		case p < 40:
			return dayRead(f, r)
		case p < 65:
			d := r.Intn(eventDays - 1)
			return stmt{fmt.Sprintf("SELECT kind, COUNT(*), SUM(score) FROM events WHERE day BETWEEN %d AND %d GROUP BY kind", d, d+1), readCounts, int(f.dayCount[d] + f.dayCount[d+1])}
		case p < 95:
			d := r.Intn(eventDays)
			return stmt{fmt.Sprintf("SELECT e.id, u.tier FROM events e JOIN users u ON u.id = e.user_id WHERE e.day = %d LIMIT 200", d), readExact, min(200, int(f.dayCount[d]))}
		default:
			return noteUpdate(f, r)
		}
	}
}

// mixedRW: 25 % primary-key read, 25 % user_id read, 20 % insert, 20 %
// update of an indexed column, 10 % delete by key. Each client inserts
// into its own id sequence above the loaded rows.
func mixedRW(f *fixture, r *rand.Rand, client int) stream {
	nextID := f.events + client
	return func() stmt {
		switch p := r.Intn(100); {
		case p < 25:
			return pkRead(f, r, readAny)
		case p < 50:
			return userRead(f, r, readAny)
		case p < 70:
			id := nextID
			nextID += clients
			return stmt{fmt.Sprintf("INSERT INTO events VALUES (%d, %d, %d, %d, %d, 'n%d')", id,
				r.Intn(f.users), r.Intn(eventKinds), r.Intn(eventDays), r.Intn(maxScore), r.Intn(1000)), writeInsert, 1}
		case p < 90:
			return stmt{fmt.Sprintf("UPDATE events SET score = %d WHERE id = %d", r.Intn(maxScore), r.Intn(f.events)), writeAny, 0}
		default:
			return stmt{fmt.Sprintf("DELETE FROM events WHERE id = %d", r.Intn(f.events)), writeDelete, 0}
		}
	}
}

// tuneNarrow: three read templates that all scan the unindexed events
// table (55 % user_id, 25 % kind and score, 15 % day) and 5 % updates by
// key. Only key updates are written: a window holding one INSERT makes the
// shadow gate answer degraded[unreplayable_queries] on every cycle.
func tuneNarrow(f *fixture, r *rand.Rand, _ int) stream {
	return func() stmt {
		switch p := r.Intn(100); {
		case p < 55:
			return userRead(f, r, readExact)
		case p < 80:
			return stmt{fmt.Sprintf("SELECT id, day FROM events WHERE kind = %d AND score > %d", r.Intn(eventKinds), maxScore-1-r.Intn(20)), readAny, 0}
		case p < 95:
			return dayRead(f, r)
		default:
			return noteUpdate(f, r)
		}
	}
}

// tuneWidePool is the number of statements drawn per client for tune_wide.
const tuneWidePool = 20000

// tuneWide: 95 % reads sampled from Product C's ~190 templates, 5 % payload
// updates by key. The statements are drawn here, on the calling goroutine,
// and the stream cycles through them: the product sampler is not meant to
// be shared between goroutines.
func tuneWide(f *fixture, r *rand.Rand, _ int) stream {
	pool := make([]stmt, tuneWidePool)
	for i := range pool {
		if r.Intn(100) < 95 {
			pool[i] = stmt{f.product.SampleRead(r), readAny, 0}
		} else {
			pool[i] = stmt{fmt.Sprintf("UPDATE t%03d SET c7 = %d WHERE id = %d",
				r.Intn(f.product.Spec.Tables), r.Intn(10000), r.Intn(f.product.Spec.RowsPerTable)), writeOne, 1}
		}
	}
	i := 0
	return func() stmt {
		s := pool[i%len(pool)]
		i++
		return s
	}
}
