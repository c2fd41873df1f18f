// Package failpoint is a dependency-free, deterministic fault-injection
// registry for the continuous-tuning loop. AIM's no-regression guarantee
// (§VI) only holds if the machinery that enforces it — shadow clone builds,
// workload replay, index materialization, regression reverts — survives
// failures mid-flight, so this package makes failure a first-class,
// testable input: callers mark named *sites* on their fallible paths and
// tests (or operators, via AIM_FAILPOINTS) arm those sites with error,
// delay or panic actions fired by a seeded PRNG and/or hit-count triggers.
//
// Design rules (same discipline as internal/obs):
//
//   - Nil is off. With no registry activated, Inject is one atomic load and
//     a nil check — zero allocation, no locks — so production paths keep
//     failpoints compiled in permanently.
//   - Determinism. Every site draws from its own PRNG seeded by
//     (registry seed, site name), so a fixed seed yields the same fault
//     schedule per site regardless of how other sites interleave.
//   - Sites never change results. A site either fails the operation it
//     guards (the caller's error path must cope) or delays it; it never
//     alters data. The golden determinism suite runs with delay-armed
//     failpoints to prove recommendations are byte-identical.
//
// Site naming convention: "<package>.<operation>" in snake case
// (storage.clone, engine.create_index, replay.query). The registered sites
// are listed in DESIGN.md "Fault injection & failure semantics".
package failpoint

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aim/internal/obs"
)

// ErrInjected is the sentinel wrapped by every error an armed site returns;
// callers distinguish injected faults with errors.Is(err, ErrInjected).
var ErrInjected = errors.New("failpoint: injected fault")

// action kinds.
const (
	kindErr = iota
	kindDelay
	kindPanic
)

// action is one armed behaviour of a site. A site may carry several actions
// (e.g. a delay and an error); they are evaluated in spec order.
type action struct {
	kind  int
	prob  float64       // firing probability per qualifying hit (0..1]
	delay time.Duration // kindDelay only
	from  int64         // first hit (1-based) the action applies to; 0 = 1
	to    int64         // last hit the action applies to; 0 = unbounded
	err   error         // pre-built kindErr error (avoids per-fire allocs)
}

// site is one named injection point's armed state.
type site struct {
	name    string
	actions []action

	mu       sync.Mutex
	rng      *rand.Rand
	hits     int64 // Inject evaluations
	injected int64 // actions fired (err, delay or panic)
}

// Registry is an immutable-after-build set of armed sites. Build one with
// New/Set or Parse, then Activate it; nil is the disabled state.
type Registry struct {
	seed  int64
	sites map[string]*site
}

// New returns an empty registry whose sites derive their PRNGs from seed.
func New(seed int64) *Registry {
	return &Registry{seed: seed, sites: map[string]*site{}}
}

// siteSeed mixes the registry seed with the site name so each site's fault
// schedule is independent of evaluation order at other sites.
func siteSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}

// Set arms (or re-arms) a site from an action spec like "err(0.05)" or
// "delay(10ms,0.1)|err(0.01)@3+". See Parse for the grammar.
func (r *Registry) Set(name, spec string) error {
	if name == "" {
		return fmt.Errorf("failpoint: empty site name")
	}
	actions, err := parseActions(name, spec)
	if err != nil {
		return err
	}
	r.sites[name] = &site{
		name:    name,
		actions: actions,
		rng:     rand.New(rand.NewSource(siteSeed(r.seed, name))),
	}
	return nil
}

// SiteStatus is one armed site's state, exported for the /statusz telemetry
// endpoint.
type SiteStatus struct {
	Name     string `json:"name"`
	Actions  int    `json:"actions"`
	Hits     int64  `json:"hits"`
	Injected int64  `json:"injected"`
}

// Sites lists the registry's armed sites sorted by name (nil-safe, empty
// when disabled).
func (r *Registry) Sites() []SiteStatus {
	if r == nil {
		return nil
	}
	out := make([]SiteStatus, 0, len(r.sites))
	for _, s := range r.sites {
		s.mu.Lock()
		out = append(out, SiteStatus{Name: s.name, Actions: len(s.actions), Hits: s.hits, Injected: s.injected})
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ArmedSites lists the process-wide armed sites (empty when no registry is
// active).
func ArmedSites() []SiteStatus { return active.Load().Sites() }

// active is the process-wide armed registry; nil = disabled.
var active atomic.Pointer[Registry]

// Activate installs r as the process-wide registry (nil disables injection).
// Like pool.Instrument, this is process-global: arm before the run under
// test and disarm after.
func Activate(r *Registry) { active.Store(r) }

// Enabled reports whether any registry is armed.
func Enabled() bool { return active.Load() != nil }

// metricsSet bundles the fault counters so they swap atomically as a unit
// (same pattern as internal/pool).
type metricsSet struct {
	injected *obs.Counter // faults fired by armed sites
	retries  *obs.Counter // retry attempts consumed by hardened callers
	degraded *obs.Counter // operations that gave up and degraded gracefully
}

var instr atomic.Pointer[metricsSet]

// Instrument attaches the fault counters to the registry (nil detaches):
// faults.injected, faults.retries and faults.degraded. Injection fires
// faults.injected itself; hardened callers report the other two through
// CountRetry/CountDegraded.
func Instrument(r *obs.Registry) {
	if r == nil {
		instr.Store(nil)
		return
	}
	instr.Store(&metricsSet{
		injected: r.Counter("faults.injected"),
		retries:  r.Counter("faults.retries"),
		degraded: r.Counter("faults.degraded"),
	})
}

// CountRetry records one retry attempt in faults.retries. Policy.Do calls
// this automatically; manual retry loops should too.
func CountRetry() {
	if m := instr.Load(); m != nil {
		m.retries.Inc()
	}
}

// CountDegraded records one graceful degradation (an operation that
// exhausted its retries and fell back to "no change") in faults.degraded.
func CountDegraded() {
	if m := instr.Load(); m != nil {
		m.degraded.Inc()
	}
}

// Inject evaluates the named site against the armed registry. With no
// registry armed it is one atomic load and a nil check (zero allocation).
// An armed err action returns an error wrapping ErrInjected; a delay action
// sleeps and continues; a panic action panics.
func Inject(name string) error {
	r := active.Load()
	if r == nil {
		return nil
	}
	s := r.sites[name]
	if s == nil {
		return nil
	}
	return s.inject()
}

func (s *site) inject() error {
	s.mu.Lock()
	s.hits++
	hit := s.hits
	var fire []action
	for _, a := range s.actions {
		if a.from > 0 && hit < a.from {
			continue
		}
		if a.to > 0 && hit > a.to {
			continue
		}
		if a.prob < 1 && s.rng.Float64() >= a.prob {
			continue
		}
		s.injected++
		fire = append(fire, a)
	}
	s.mu.Unlock()
	// Fire outside the lock: delays must not serialize other workers'
	// evaluations of the same site, and panics must not leave it held.
	var err error
	for _, a := range fire {
		if m := instr.Load(); m != nil {
			m.injected.Inc()
		}
		switch a.kind {
		case kindDelay:
			time.Sleep(a.delay)
		case kindPanic:
			panic(fmt.Sprintf("failpoint: injected panic at %s", s.name))
		case kindErr:
			if err == nil {
				err = a.err
			}
		}
	}
	return err
}
