package loadgen

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// draw is a Sample whose output is its position plus one draw from the
// client's PRNG, so a stream shows both where a statement sits and which
// generator produced it.
func draw(client, round, i int, r *rand.Rand) string {
	return fmt.Sprintf("c%d r%d #%d %d", client, round, i, r.Int63())
}

func opts(seed int64, clients int) Options {
	return Options{Clients: clients, Rounds: 3, PerRound: 5, Seed: seed, Sample: draw}
}

// clientStream returns one client's statements in issue order across rounds.
func clientStream(o Options, stream [][]string, client int) []string {
	var out []string
	for _, round := range stream {
		out = append(out, round[client*o.PerRound:(client+1)*o.PerRound]...)
	}
	return out
}

// TestStreamDeterministicBySeed: the stream is a pure function of the
// options — same seed, same statements; another seed, another stream — laid
// out round by round in (client, issue order), the canonical window order.
func TestStreamDeterministicBySeed(t *testing.T) {
	o := opts(1, 4)
	a, b := Stream(o), Stream(o)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two Stream calls with the same options differ")
	}
	if reflect.DeepEqual(a, Stream(opts(2, 4))) {
		t.Fatal("a different seed produced the same stream")
	}
	if len(a) != o.Rounds {
		t.Fatalf("rounds = %d, want %d", len(a), o.Rounds)
	}
	for round, stmts := range a {
		if len(stmts) != o.Clients*o.PerRound {
			t.Fatalf("round %d holds %d statements, want %d", round, len(stmts), o.Clients*o.PerRound)
		}
		for pos, sql := range stmts {
			want := fmt.Sprintf("c%d r%d #%d ", pos/o.PerRound, round, pos%o.PerRound)
			if sql[:len(want)] != want {
				t.Fatalf("stream[%d][%d] = %q, want position prefix %q", round, pos, sql, want)
			}
		}
	}
}

// TestClientsNeverShareAStream: every client draws from its own generator,
// for the whole run. No two clients see the same generator or the same draw
// sequence, and a client's statements do not depend on how many other
// clients the fleet has.
func TestClientsNeverShareAStream(t *testing.T) {
	o := opts(1, 8)
	owner := map[*rand.Rand]int{}
	o.Sample = func(client, round, i int, r *rand.Rand) string {
		if c, seen := owner[r]; seen && c != client {
			t.Fatalf("clients %d and %d share a generator", c, client)
		}
		owner[r] = client
		return fmt.Sprint(r.Int63())
	}
	stream := Stream(o)
	if len(owner) != o.Clients {
		t.Fatalf("%d generators for %d clients: a client's generator changed between rounds", len(owner), o.Clients)
	}
	seen := map[string]int{}
	for c := 0; c < o.Clients; c++ {
		key := fmt.Sprint(clientStream(o, stream, c))
		if other, dup := seen[key]; dup {
			t.Fatalf("clients %d and %d drew the same sequence", other, c)
		}
		seen[key] = c
	}

	small, large := opts(1, 3), opts(1, 8)
	ss, ls := Stream(small), Stream(large)
	for c := 0; c < small.Clients; c++ {
		if !reflect.DeepEqual(clientStream(small, ss, c), clientStream(large, ls, c)) {
			t.Fatalf("client %d's statements changed with the fleet size", c)
		}
	}
}

// TestLabelAndTraceArePureFunctionsOfPosition pins the two identifiers an
// offline replay reconstructs: the literal formats, label order equal to
// client index order, and one trace ID per position.
func TestLabelAndTraceArePureFunctionsOfPosition(t *testing.T) {
	if got := Label(7); got != "lg-0007" {
		t.Errorf("Label(7) = %q", got)
	}
	if got := Trace(7, 2, 5); got != "t-0007-2-5" {
		t.Errorf("Trace(7, 2, 5) = %q", got)
	}
	labels := make([]string, 120)
	for c := range labels {
		labels[c] = Label(c)
	}
	if !sort.StringsAreSorted(labels) {
		t.Error("label sort order differs from client index order")
	}
	ids := map[string]bool{}
	for c := 0; c < 12; c++ {
		for round := 0; round < 12; round++ {
			for i := 0; i < 12; i++ {
				ids[Trace(c, round, i)] = true
			}
		}
	}
	if len(ids) != 12*12*12 {
		t.Errorf("%d distinct trace IDs for %d positions", len(ids), 12*12*12)
	}
}

// TestRunRejectsBadOptionsBeforeDialing: a malformed fleet fails on its
// options, not on the (absent) server.
func TestRunRejectsBadOptionsBeforeDialing(t *testing.T) {
	for _, o := range []Options{
		{Clients: 0, Rounds: 1, PerRound: 1, Sample: draw},
		{Clients: 1, Rounds: 0, PerRound: 1, Sample: draw},
		{Clients: 1, Rounds: 1, PerRound: 0, Sample: draw},
		{Clients: 1, Rounds: 1, PerRound: 1},
	} {
		if _, err := Run(o); err == nil {
			t.Errorf("Run(%+v) accepted malformed options", o)
		}
	}
}
