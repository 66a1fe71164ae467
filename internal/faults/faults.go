// Package faults is a deterministic fault-injection harness for the
// streaming stack. Injection points are compiled into the production
// code paths permanently — a panic site in the numeric kernels, sleep
// and error sites in the pool's reducers, a stall site in the
// executor's workers — but each site is a single atomic pointer load
// when no injector is active, so the disabled paths cost no
// allocations and no measurable time (BenchmarkAdderReuseFaultsOff
// gates this in CI).
//
// Determinism: every site is identified by a (Point, Key) pair and
// keeps a per-pair occurrence counter while an injector is active.
// Rules fire on occurrence indices (After/Every/Count) or on a
// probability decided by hashing (seed, point, key, occurrence) — not
// by a shared RNG stream — so whether the 3rd reduction of shard 2
// faults does not depend on how goroutines interleaved. Re-running a
// chaos schedule with the same seed injects the same faults at the
// same logical places.
package faults

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Point identifies one class of injection site.
type Point uint8

const (
	// PanicInKernel panics inside a numeric kernel body — on whatever
	// goroutine runs it: an executor worker for multi-threaded
	// reductions, the reducer or caller itself for inline ones.
	PanicInKernel Point = iota
	// SlowReduction delays a pool shard's reduction by Rule.Delay.
	SlowReduction
	// FailedPush fails a Pool push with an injected error.
	FailedPush
	// WorkerStall delays an executor worker at region entry.
	WorkerStall
	// FailReduction fails a pool shard's reduction with an error,
	// which poisons the shard as a panic does, minus the quarantine.
	FailReduction
	numPoints
)

var pointNames = [numPoints]string{
	"PanicInKernel", "SlowReduction", "FailedPush", "WorkerStall", "FailReduction",
}

// String returns the point's name.
func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return "Unknown"
}

// KeyAny in a Rule matches every site key of the rule's point.
const KeyAny int64 = -1

// ErrInjected is the default error of error-producing rules. Injected
// failures wrap it, so tests can tell injected faults from real ones.
var ErrInjected = errors.New("spkadd: injected fault")

// InjectedPanic is the value PanicOn panics with, so recovery layers
// and tests can assert a recovered panic's provenance.
type InjectedPanic struct {
	Point Point
	Key   int64
}

func (ip InjectedPanic) String() string {
	return fmt.Sprintf("injected panic (%v, key %d)", ip.Point, ip.Key)
}

// Rule is one line of a fault schedule: at the sites of Point whose
// key matches Key, skip the first After occurrences, then fire every
// Every-th one (0 or 1 means every one), at most Count times total
// (0 means unlimited), each time with probability Prob (0 means
// always). Delay is the sleep for the sleep points; Err the error for
// the error points (nil means ErrInjected).
type Rule struct {
	Point Point
	Key   int64
	After uint64
	Every uint64
	Count uint64
	Prob  float64
	Delay time.Duration
	Err   error
}

type pairKey struct {
	point Point
	key   int64
}

// Injector is a seeded, schedule-driven fault source. Activate exactly
// one at a time; sites consult the active injector through one atomic
// load.
type Injector struct {
	seed  uint64
	rules []Rule

	mu    sync.Mutex
	occ   map[pairKey]uint64 // occurrence counters per (point, key)
	fires []uint64           // fire counters per rule
	total atomic.Int64
}

// New returns an injector for the given seed and schedule.
func New(seed uint64, rules ...Rule) *Injector {
	return &Injector{
		seed:  seed,
		rules: rules,
		occ:   make(map[pairKey]uint64),
		fires: make([]uint64, len(rules)),
	}
}

// Fired returns how many faults this injector has injected in total.
func (in *Injector) Fired() int64 { return in.total.Load() }

// RuleFires returns how often rule i has fired.
func (in *Injector) RuleFires(i int) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fires[i]
}

// active is the process-wide injector; nil means every site is
// disabled and costs one atomic load.
var active atomic.Pointer[Injector]

// Activate installs in as the process-wide injector and returns the
// deactivator. Tests `defer faults.Activate(inj)()`. Activating over
// an already-active injector replaces it.
func Activate(in *Injector) (deactivate func()) {
	active.Store(in)
	return func() { active.CompareAndSwap(in, nil) }
}

// Active returns the installed injector, or nil.
func Active() *Injector { return active.Load() }

// decide evaluates the schedule at one site occurrence and returns the
// rule that fires, if any. One occurrence is counted per call whether
// or not anything fires.
func (in *Injector) decide(p Point, key int64) *Rule {
	in.mu.Lock()
	defer in.mu.Unlock()
	k := pairKey{p, key}
	idx := in.occ[k]
	in.occ[k] = idx + 1
	for i := range in.rules {
		r := &in.rules[i]
		if r.Point != p || (r.Key != KeyAny && r.Key != key) {
			continue
		}
		if idx < r.After {
			continue
		}
		if every := r.Every; every > 1 && (idx-r.After)%every != 0 {
			continue
		}
		if r.Count > 0 && in.fires[i] >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && !probHit(in.seed, p, key, idx, r.Prob) {
			continue
		}
		in.fires[i]++
		in.total.Add(1)
		return r
	}
	return nil
}

// probHit makes the probabilistic fire decision by hashing the
// occurrence's identity with the seed (splitmix64), not by drawing
// from a shared RNG: the decision for a given (point, key, occurrence)
// is a pure function of the seed, immune to goroutine interleaving.
func probHit(seed uint64, p Point, key int64, idx uint64, prob float64) bool {
	x := seed ^ uint64(p)<<56 ^ uint64(key)*0x9E3779B97F4A7C15 ^ idx*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < prob
}

// Panics reports whether the (p, key) site should panic now. The
// caller panics with InjectedPanic itself (after counting the fault in
// its stats) so the panic originates from the instrumented frame.
func Panics(p Point, key int64) bool {
	in := active.Load()
	if in == nil {
		return false
	}
	return in.decide(p, key) != nil
}

// PanicOn panics with InjectedPanic when the (p, key) site fires.
func PanicOn(p Point, key int64) {
	if Panics(p, key) {
		panic(InjectedPanic{Point: p, Key: key})
	}
}

// SleepOn sleeps the firing rule's Delay at the (p, key) site and
// reports whether it fired.
func SleepOn(p Point, key int64) bool {
	in := active.Load()
	if in == nil {
		return false
	}
	r := in.decide(p, key)
	if r == nil {
		return false
	}
	if r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	return true
}

// ErrOn returns the firing rule's error (ErrInjected when the rule
// names none) at the (p, key) site, or nil.
func ErrOn(p Point, key int64) error {
	in := active.Load()
	if in == nil {
		return nil
	}
	r := in.decide(p, key)
	if r == nil {
		return nil
	}
	if r.Err != nil {
		return r.Err
	}
	return ErrInjected
}
