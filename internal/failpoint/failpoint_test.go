package failpoint

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"aim/internal/obs"
)

// arm activates a registry for the duration of the test.
func arm(t *testing.T, r *Registry) {
	t.Helper()
	Activate(r)
	t.Cleanup(func() { Activate(nil) })
}

func TestDisabledInjectIsNil(t *testing.T) {
	Activate(nil)
	if err := Inject("storage.clone"); err != nil {
		t.Fatalf("disabled inject returned %v", err)
	}
	if Enabled() {
		t.Fatal("Enabled with no registry armed")
	}
}

func TestDisabledInjectZeroAlloc(t *testing.T) {
	Activate(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := Inject("storage.clone"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled Inject allocates %.1f per call, want 0", allocs)
	}
}

func TestErrAlwaysFires(t *testing.T) {
	r, err := Parse("engine.create_index=err()", 1)
	if err != nil {
		t.Fatal(err)
	}
	arm(t, r)
	got := Inject("engine.create_index")
	if !errors.Is(got, ErrInjected) {
		t.Fatalf("err site returned %v", got)
	}
	if !strings.Contains(got.Error(), "engine.create_index") {
		t.Errorf("injected error %q does not name its site", got)
	}
	if err := Inject("unarmed.site"); err != nil {
		t.Fatalf("unarmed site returned %v", err)
	}
	if s := siteStatus(r, "engine.create_index"); s.Hits != 1 || s.Injected != 1 {
		t.Errorf("hits=%d injected=%d, want 1/1", s.Hits, s.Injected)
	}
}

func TestProbabilityIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []bool {
		r, err := Parse("replay.query=err(0.3)", seed)
		if err != nil {
			t.Fatal(err)
		}
		arm(t, r)
		out := make([]bool, 200)
		for i := range out {
			out[i] = Inject("replay.query") != nil
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault schedule differs at hit %d for identical seeds", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("fault schedules identical across different seeds")
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired < 30 || fired > 90 {
		t.Errorf("p=0.3 over 200 hits fired %d times, want roughly 60", fired)
	}
}

func TestHitCountTriggers(t *testing.T) {
	r := New(1)
	if err := r.Set("a", "err()@3"); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("b", "err()@3+"); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("c", "err()@2-4"); err != nil {
		t.Fatal(err)
	}
	arm(t, r)
	fires := func(site string) []bool {
		out := make([]bool, 6)
		for i := range out {
			out[i] = Inject(site) != nil
		}
		return out
	}
	want := map[string][]bool{
		"a": {false, false, true, false, false, false},
		"b": {false, false, true, true, true, true},
		"c": {false, true, true, true, false, false},
	}
	for site, w := range want {
		got := fires(site)
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("site %s hit %d fired=%v want %v", site, i+1, got[i], w[i])
			}
		}
	}
}

func TestDelayAction(t *testing.T) {
	r, err := Parse("pool.task=delay(20ms)", 1)
	if err != nil {
		t.Fatal(err)
	}
	arm(t, r)
	start := time.Now()
	if err := Inject("pool.task"); err != nil {
		t.Fatalf("delay action returned error %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Errorf("delay(20ms) slept only %v", d)
	}
}

func TestPanicAction(t *testing.T) {
	r, err := Parse("shadow.clone=panic()", 1)
	if err != nil {
		t.Fatal(err)
	}
	arm(t, r)
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("panic action did not panic")
		}
		if !strings.Contains(fmt.Sprint(p), "shadow.clone") {
			t.Errorf("panic %v does not name its site", p)
		}
	}()
	Inject("shadow.clone")
}

func TestMultipleActionsPerSite(t *testing.T) {
	r, err := Parse("replay.query=delay(1ms)|err()@2+", 1)
	if err != nil {
		t.Fatal(err)
	}
	arm(t, r)
	if err := Inject("replay.query"); err != nil {
		t.Fatalf("hit 1 returned %v, want delay only", err)
	}
	if err := Inject("replay.query"); !errors.Is(err, ErrInjected) {
		t.Fatalf("hit 2 returned %v, want injected error", err)
	}
	if got := siteStatus(r, "replay.query").Injected; got != 3 { // 2 delays + 1 err
		t.Errorf("injected = %d, want 3", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"noequals",
		"site=",
		"site=unknown(1)",
		"site=err(2)",     // prob out of range
		"site=err(0)",     // prob out of range
		"site=delay()",    // missing duration
		"site=delay(abc)", // bad duration
		"site=err()@0",    // hit counts are 1-based
		"site=err()@5-2",  // empty window
		"Site=err()",      // upper case site name
		"site name=err()", // space in site name
		"site=err(0.5,x)", // err takes one arg
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
	good := []string{
		"",
		" ; ",
		"shadow.clone=err(0.05);replay.query=delay(10ms,0.1)",
		"a.b=err()|delay(1ms,0.5)|panic(0.001)@100+",
		"x.y_z=err(1)@2-2",
	}
	for _, spec := range good {
		if _, err := Parse(spec, 1); err != nil {
			t.Errorf("Parse(%q) failed: %v", spec, err)
		}
	}
}

func TestInstrumentCounters(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	t.Cleanup(func() { Instrument(nil) })
	r, err := Parse("a.b=err()", 1)
	if err != nil {
		t.Fatal(err)
	}
	arm(t, r)
	Inject("a.b")
	Inject("a.b")
	CountRetry()
	CountDegraded()
	if got := reg.Counter("faults.injected").Value(); got != 2 {
		t.Errorf("faults.injected = %d, want 2", got)
	}
	if got := reg.Counter("faults.retries").Value(); got != 1 {
		t.Errorf("faults.retries = %d, want 1", got)
	}
	if got := reg.Counter("faults.degraded").Value(); got != 1 {
		t.Errorf("faults.degraded = %d, want 1", got)
	}
}

func TestPolicyRetriesUntilSuccess(t *testing.T) {
	calls := 0
	p := Policy{Attempts: 5, Base: time.Microsecond}
	err := p.Do(func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil/3", err, calls)
	}
}

func TestPolicyExhaustsAttempts(t *testing.T) {
	calls := 0
	want := errors.New("persistent")
	p := Policy{Attempts: 3, Base: time.Microsecond}
	if err := p.Do(func() error { calls++; return want }); !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestPolicyAbortStopsRetries(t *testing.T) {
	calls := 0
	inner := errors.New("fatal")
	p := Policy{Attempts: 5, Base: time.Microsecond}
	err := p.Do(func() error { calls++; return Abort(inner) })
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (abort must not retry)", calls)
	}
	if !errors.Is(err, inner) {
		t.Fatalf("err = %v, want unwrapped %v", err, inner)
	}
}

func TestPolicyDeadline(t *testing.T) {
	calls := 0
	p := Policy{Attempts: 1000, Base: 5 * time.Millisecond, Max: 5 * time.Millisecond, Deadline: 20 * time.Millisecond}
	start := time.Now()
	if err := p.Do(func() error { calls++; return errors.New("always") }); err == nil {
		t.Fatal("expected error")
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("deadline not enforced: ran %v over %d calls", elapsed, calls)
	}
	if calls >= 1000 {
		t.Fatal("deadline did not bound attempts")
	}
}

func TestPolicyZeroValueSingleAttempt(t *testing.T) {
	calls := 0
	var p Policy
	p.Do(func() error { calls++; return errors.New("x") })
	if calls != 1 {
		t.Fatalf("zero-value policy made %d attempts, want 1", calls)
	}
}

// siteStatus is the named site's entry in r.Sites() (zero when unarmed).
func siteStatus(r *Registry, name string) SiteStatus {
	for _, s := range r.Sites() {
		if s.Name == name {
			return s
		}
	}
	return SiteStatus{}
}
