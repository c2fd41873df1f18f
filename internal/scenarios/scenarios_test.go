package scenarios

import (
	"math/rand"
	"strings"
	"testing"

	"aim/internal/sqlparser"
)

// TestRegistry pins the registry surface: seven scenarios, stable unique
// names, ByName returning fresh instances.
func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("got %d scenarios, want 7", len(all))
	}
	seen := map[string]bool{}
	for _, sc := range all {
		if sc.Name() == "" || sc.Description() == "" {
			t.Errorf("scenario %T has an empty name or description", sc)
		}
		if seen[sc.Name()] {
			t.Errorf("duplicate scenario name %q", sc.Name())
		}
		seen[sc.Name()] = true
		if _, ok := ByName(sc.Name()); !ok {
			t.Errorf("ByName(%q) did not resolve", sc.Name())
		}
		p := sc.Profile()
		if p.Cycles <= 0 || p.ReducedCycles <= 0 || p.WindowStatements <= 0 {
			t.Errorf("%s: profile sizes must be positive: %+v", sc.Name(), p)
		}
		if p.ReducedCycles > p.Cycles {
			t.Errorf("%s: reduced cycles %d exceed full cycles %d", sc.Name(), p.ReducedCycles, p.Cycles)
		}
		if p.ReducedCycles <= p.TrapCycle {
			t.Errorf("%s: reduced run (%d cycles) never reaches the trap at %d",
				sc.Name(), p.ReducedCycles, p.TrapCycle)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName resolved a nonexistent scenario")
	}
	if len(Names()) != len(all) {
		t.Errorf("Names() returned %d entries for %d scenarios", len(Names()), len(all))
	}
}

// sampleCycles picks representative cycles: the phases before, at, and well
// past the trap, plus the end of the full profile.
func sampleCycles(p Profile) []int {
	return []int{0, p.TrapCycle / 2, p.TrapCycle, p.TrapCycle + 3, p.Cycles - 1}
}

// TestStatementsParseAndExecute checks every scenario's stream is made of
// valid SQL that the engine accepts across all phases: the loop drops
// statements that error, so an invalid generator would silently test an
// empty workload.
func TestStatementsParseAndExecute(t *testing.T) {
	for _, sc := range All() {
		sc := sc
		t.Run(sc.Name(), func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			db, err := sc.Setup(r)
			if err != nil {
				t.Fatal(err)
			}
			p := sc.Profile()
			prev := -1
			for _, cycle := range sampleCycles(p) {
				// Side effects (the migration) must land before their phase's
				// statements can execute.
				for c := prev + 1; c <= cycle; c++ {
					if err := sc.Advance(db, c, r); err != nil {
						t.Fatalf("advance cycle %d: %v", c, err)
					}
				}
				prev = cycle
				for i := 0; i < 25; i++ {
					sql := sc.Statement(cycle, r)
					if _, err := sqlparser.Parse(sql); err != nil {
						t.Fatalf("cycle %d: unparsable statement %q: %v", cycle, sql, err)
					}
					if _, err := db.Exec(sql); err != nil {
						t.Fatalf("cycle %d: statement failed %q: %v", cycle, sql, err)
					}
				}
			}
		})
	}
}

// stream renders n statements per sampled cycle from a fresh instance.
func stream(sc Scenario, seed int64, start, cycles, perCycle int) (string, error) {
	r := rand.New(rand.NewSource(seed))
	if _, err := sc.Setup(r); err != nil {
		return "", err
	}
	var sb strings.Builder
	for c := start; c < start+cycles; c++ {
		for i := 0; i < perCycle; i++ {
			sb.WriteString(sc.Statement(c, r))
			sb.WriteByte('\n')
		}
	}
	return sb.String(), nil
}

// TestStreamDeterminism: two fresh instances of the same scenario at the
// same seed emit byte-identical statement streams.
func TestStreamDeterminism(t *testing.T) {
	for i, sc := range All() {
		sc2 := All()[i]
		s1, err := stream(sc, 42, 0, 30, 8)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := stream(sc2, 42, 0, 30, 8)
		if err != nil {
			t.Fatal(err)
		}
		if s1 != s2 {
			t.Errorf("%s: stream diverged between two fresh instances at the same seed", sc.Name())
		}
	}
}

// FuzzScenarioDeterminism fuzzes the determinism contract: any scenario, any
// seed, any cycle range (including ranges straddling the trap) must replay
// byte-identically on a fresh instance. A generator that leaks hidden
// nondeterministic state (map iteration, shared globals, time) fails here
// long before it produces an unreproducible suite run.
func FuzzScenarioDeterminism(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(20), false)
	f.Add(int64(23), uint8(1), uint8(40), true)
	f.Add(int64(99), uint8(2), uint8(10), true)
	f.Add(int64(7), uint8(3), uint8(31), false)
	f.Add(int64(-5), uint8(4), uint8(5), true)
	f.Add(int64(23), uint8(5), uint8(12), true)
	f.Add(int64(23), uint8(6), uint8(6), false)
	f.Fuzz(func(t *testing.T, seed int64, which uint8, cycles uint8, fromTrap bool) {
		all := All()
		i := int(which) % len(all)
		sc1, sc2 := all[i], All()[i]
		start := 0
		if fromTrap {
			// Straddle the trap boundary: phase transitions are where a
			// generator is most likely to consult hidden state.
			if start = sc1.Profile().TrapCycle - 2; start < 0 {
				start = 0
			}
		}
		n := int(cycles)%48 + 1
		s1, err := stream(sc1, seed, start, n, 5)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := stream(sc2, seed, start, n, 5)
		if err != nil {
			t.Fatal(err)
		}
		if s1 != s2 {
			t.Fatalf("%s: stream diverged at seed %d start %d", sc1.Name(), seed, start)
		}
	})
}
