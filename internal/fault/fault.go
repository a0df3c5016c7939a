// Package fault is a zero-dependency, deterministic fault-injection
// registry. Production code marks its failure seams with named sites —
// fault.Hit("wal.fsync"), fault.Hit("compact.swap") — and tests arm a
// seeded Schedule that makes chosen sites fail on the Nth hit, fail with
// probability p, inject latency, or panic. Disarmed (the production
// state) a site check compiles to one atomic pointer load and a nil
// check: no allocation, no branch history beyond the load, which is what
// lets fault points sit on write paths without taxing the hot read path
// (gated in scripts/check_allocs.sh).
//
// Determinism contract: with the same Schedule (same Seed, same Rules)
// armed, the same sequence of Hit calls observes the same sequence of
// injected faults. Probabilistic rules draw from a seeded generator
// advanced only by hits on their own site, so unrelated sites do not
// perturb each other's draws.
//
// The registry is global (the seams it instruments — WAL, compactor,
// the product search, HTTP writes — span packages), so tests arming it must
// not run in parallel with each other; Arm returns a restore func for
// t.Cleanup.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel every injected failure wraps: harnesses
// separate injected faults from organic ones with errors.Is(err,
// fault.ErrInjected).
var ErrInjected = errors.New("fault: injected failure")

// Error is one injected failure, carrying the site that produced it.
type Error struct {
	Site string
	// Hit is the 1-based count of Hit calls on the site when the rule
	// fired — which occurrence failed, for harness diagnostics.
	Hit int
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected failure at %s (hit %d)", e.Site, e.Hit)
}

// Is makes every injected failure errors.Is-able as ErrInjected.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// Mode selects what an armed rule does when it fires.
type Mode uint8

const (
	// ModeError makes Hit return an *Error wrapping ErrInjected.
	ModeError Mode = iota
	// ModeLatency makes Hit sleep for Rule.Delay, then succeed.
	ModeLatency
	// ModePanic makes Hit panic with an *Error value — exercising the
	// recover seams (the product search, HTTP handlers, the compactor).
	ModePanic
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeLatency:
		return "latency"
	case ModePanic:
		return "panic"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Rule arms one site. The zero Nth/Prob combination fires on every hit;
// Nth > 0 fires on exactly the Nth hit of the site; Prob > 0 fires each
// hit with probability Prob drawn from the schedule's seeded generator.
type Rule struct {
	Site  string
	Mode  Mode
	Nth   int           // fire on exactly this 1-based hit (0 = not hit-gated)
	Prob  float64       // fire with this probability per hit (0 = not probabilistic)
	Delay time.Duration // ModeLatency sleep
}

// Schedule is a deterministic set of armed rules.
type Schedule struct {
	Seed  int64
	Rules []Rule
}

// siteState is the armed per-site state: ordered rules, a hit counter,
// and a per-site seeded generator for probabilistic rules.
type siteState struct {
	rules []Rule
	hits  int
	rng   *rand.Rand
}

// injector is one armed schedule. All mutation happens under mu — armed
// paths are test-only, so a mutex is fine; the disarmed path never
// touches it.
type injector struct {
	mu    sync.Mutex
	sites map[string]*siteState
}

// armed is nil when disarmed — the whole production-path cost of the
// registry is this load and the nil check.
var armed atomic.Pointer[injector]

// Arm installs the schedule, replacing any armed one, and returns a
// restore func that disarms (pass to t.Cleanup). Each site gets its own
// generator seeded from Schedule.Seed and the site name, so the draw
// sequence per site depends only on that site's hit sequence.
func Arm(s Schedule) (restore func()) {
	inj := &injector{sites: make(map[string]*siteState)}
	for _, r := range s.Rules {
		st := inj.sites[r.Site]
		if st == nil {
			st = &siteState{rng: rand.New(rand.NewSource(s.Seed ^ int64(siteHash(r.Site))))}
			inj.sites[r.Site] = st
		}
		st.rules = append(st.rules, r)
	}
	armed.Store(inj)
	return Disarm
}

// Disarm removes any armed schedule; every site becomes a no-op again.
func Disarm() { armed.Store(nil) }

// siteHash is FNV-32a over the site name, mixing the site into the
// per-site generator seed.
func siteHash(site string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(site); i++ {
		h ^= uint32(site[i])
		h *= 16777619
	}
	return h
}

// Hit is the injection check production code places at a named failure
// seam. Disarmed it returns nil at the cost of one atomic load; armed it
// counts the hit and applies the first firing rule for the site: an
// injected error, a latency sleep, or a panic.
//
//pathalgebra:hotpath
func Hit(site string) error {
	inj := armed.Load()
	if inj == nil {
		return nil
	}
	return inj.hit(site)
}

func (inj *injector) hit(site string) error {
	inj.mu.Lock()
	st := inj.sites[site]
	if st == nil {
		inj.mu.Unlock()
		return nil
	}
	st.hits++
	hit := st.hits
	var fired *Rule
	for i := range st.rules {
		r := &st.rules[i]
		switch {
		case r.Nth > 0:
			if hit == r.Nth {
				fired = r
			}
		case r.Prob > 0:
			if st.rng.Float64() < r.Prob {
				fired = r
			}
		default:
			fired = r
		}
		if fired != nil {
			break
		}
	}
	inj.mu.Unlock()
	if fired == nil {
		return nil
	}
	switch fired.Mode {
	case ModeLatency:
		time.Sleep(fired.Delay)
		return nil
	case ModePanic:
		panic(&Error{Site: site, Hit: hit})
	default:
		return &Error{Site: site, Hit: hit}
	}
}

// Hits reports how many times each armed site has been hit (fired or
// not) — harnesses assert with it that a schedule actually exercised the
// seams it targeted. Returns nil when disarmed.
func Hits() map[string]int {
	inj := armed.Load()
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[string]int, len(inj.sites))
	for site, st := range inj.sites {
		out[site] = st.hits
	}
	return out
}
