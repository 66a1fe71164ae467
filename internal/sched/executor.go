package sched

import (
	"runtime"
	"sync"
	"sync/atomic"

	"spkadd/internal/faults"
)

// This file implements the resident executor: a pool of persistent
// worker goroutines, created once and parked on per-worker channels
// between parallel regions, with reusable partitioning scratch. Every
// parallel phase in the module runs as one of its regions: spawning
// goroutines and allocating prefix/boundary arrays per phase is
// hostile to the steady state of repeated small and medium additions,
// where goroutine creation and partitioning allocations dominate the
// actual merge work. A one-shot caller creates an executor for the
// call and closes it on return.
//
// The executor offers Static, Dynamic and Weighted plus
// WeightedStealing: contiguous weighted ranges exactly as in the
// paper's load balancing, but an idle worker steals the suffix half of
// the most-loaded peer's remaining range. Weighted partitioning
// balances *predicted* work; on RMAT-skewed columns the prediction
// error concentrates in a few workers and the region waits for the
// slowest of them. Dynamic
// closes that gap with fixed chunks but gives up locality and pays a
// shared-counter CAS per chunk from the start; WeightedStealing starts
// from the paper's contiguous partitions (no coordination at all while
// the prediction holds) and pays for coordination only when a worker
// actually runs dry.

// LoadStats describes how one parallel region's work spread over its
// workers: Max and Mean are the largest and average per-worker
// executed weight (the region's makespan is governed by Max/Mean), and
// Steals counts range suffixes WeightedStealing moved from a busy
// worker to an idle one. Weight is the caller's weights for the
// weighted strategies and plain index counts otherwise.
type LoadStats struct {
	Workers int
	Max     int64
	Mean    int64
	Steals  int64
}

// solo is the LoadStats of a region that ran inline on the caller.
func solo(weight int64) LoadStats {
	return LoadStats{Workers: 1, Max: weight, Mean: weight}
}

const (
	// modeRange runs each worker on its precomputed bounds range
	// (Static and Weighted).
	modeRange = iota
	// modeDynamic claims fixed chunks from a shared atomic counter.
	modeDynamic
	// modeSteal chunk-claims from per-worker ranges with suffix
	// stealing (WeightedStealing).
	modeSteal
)

// ownerChunkDenom sets how much of its remaining range a steal-mode
// worker claims per chunk (remaining/8, at least 1): geometric decay
// keeps the claim overhead at O(log) CAS operations per worker while
// leaving most of the range visible to thieves until late.
const ownerChunkDenom = 8

// stealMaxIndex bounds the index space of the stealing mode: a
// worker's remaining range is packed as two halves of one atomic
// int64, so indices must fit in 32 bits. Larger ranges (never seen in
// practice — matrix row indices are themselves 32-bit) fall back to
// plain Weighted.
const stealMaxIndex = 1<<31 - 1

// cacheLinePad separates per-worker hot words so a worker claiming
// chunks does not false-share a cache line with its neighbours.
type cacheLinePad [56]byte

type stealRange struct {
	v atomic.Int64 // packed (lo, hi) of the unclaimed remainder
	_ cacheLinePad
}

type workerLoad struct {
	v int64 // executed weight; written only by the owning worker
	_ cacheLinePad
}

func packRange(lo, hi int) int64     { return int64(lo)<<32 | int64(hi) }
func unpackRange(v int64) (int, int) { return int(v >> 32), int(v & 0xffffffff) }

// Executor is a resident worker pool for parallel regions. Workers are
// spawned lazily on first use and then parked on per-worker channels
// between regions, so a region costs channel wakes instead of
// goroutine creation, and the partitioning scratch (weight prefix
// sums, range boundaries, steal ranges) is owned by the executor and
// reused — a warmed executor runs every strategy without allocating.
//
// Run methods are safe for concurrent use: regions serialize on an
// internal mutex, so an executor shared by several Adders (or handed
// to a Pool's reductions) acts as one global concurrency budget —
// concurrent callers take turns on the same workers rather than
// oversubscribing the machine. A region's body must not start another
// region on the same executor (it would self-deadlock on the region
// lock); the engines never nest regions.
//
// The caller of a Run method participates as worker 0, so an executor
// with budget t keeps t-1 goroutines parked. Close releases them;
// an executor that becomes unreachable without Close is cleaned up by
// the runtime, so dropping one cannot leak its workers.
type Executor struct {
	s *execState
}

// execState is the executor's worker-visible state, split from the
// handle so parked workers do not keep an abandoned Executor
// reachable: workers reference only the state, and a runtime cleanup
// on the handle shuts the workers down once the handle is collected.
type execState struct {
	budget int // max workers per region; 0 = grow to each request

	mu     sync.Mutex // serializes regions; held for a region's full duration
	wg     sync.WaitGroup
	wake   []chan struct{} // resident workers; entry i is region worker i+1
	closed bool

	// Region descriptor, written under mu before workers wake.
	mode     int
	parts    int
	n        int
	chunk    int64
	body     func(worker, lo, hi int)
	weighted bool // prefix holds real weights (vs unit index counts)
	next     atomic.Int64
	steals   atomic.Int64
	prefix   []int64
	bounds   []int
	ranges   []stealRange
	loads    []workerLoad

	// panicErr holds the first panic a region's worker recovered,
	// cleared at region start and reported as the region's error. A
	// panicking worker survives (its loop recovers), so the executor
	// needs no restart — only the abandoned range is lost, and the
	// caller learns about it through the returned *PanicError.
	panicErr atomic.Pointer[PanicError]
}

// NewExecutor returns a resident executor with a fixed worker budget:
// no region runs more than t workers, whatever thread count its caller
// asks for (t < 1 means GOMAXPROCS). This is the sharing form — one
// budgeted pool handed to many Adders via Options.Executor caps their
// combined parallelism.
func NewExecutor(t int) *Executor { return newExecutor(Threads(t)) }

// NewElasticExecutor returns a resident executor whose worker count
// grows to each region's requested thread count. This is the
// workspace-default form: it preserves the exact parallelism the
// caller's Threads option always produced, only with resident workers
// instead of per-phase spawns.
func NewElasticExecutor() *Executor { return newExecutor(0) }

func newExecutor(budget int) *Executor {
	s := &execState{budget: budget}
	ex := &Executor{s: s}
	// Workers hold only s; when the handle is dropped without Close,
	// this cleanup closes the wake channels so the parked goroutines
	// exit instead of leaking.
	runtime.AddCleanup(ex, (*execState).shutdown, s)
	return ex
}

// Budget returns the executor's worker budget (0 for elastic).
func (ex *Executor) Budget() int { return ex.s.budget }

// Close parks the executor permanently: resident workers exit, and
// later Run calls execute their region inline on the calling
// goroutine alone. Close is idempotent and safe to call concurrently
// with Run (it waits for a region in flight).
func (ex *Executor) Close() { ex.s.shutdown() }

func (s *execState) shutdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, ch := range s.wake {
		close(ch)
	}
	s.wake = nil
}

// Static divides [0, n) into near-equal contiguous ranges on resident
// workers. A panic in the body — on any worker, or on the caller's
// inline share — is recovered and returned as a *PanicError; the
// region's remaining work on the panicking worker is abandoned, but
// the executor and its workers stay usable.
// The same contract holds for Dynamic, Weighted and WeightedStealing.
func (ex *Executor) Static(n, t int, body func(worker, lo, hi int)) (LoadStats, error) {
	t = Threads(t)
	if t > n {
		t = n
	}
	if n == 0 {
		return LoadStats{}, nil
	}
	if t <= 1 {
		return solo(int64(n)), RunInline(n, body)
	}
	s := ex.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if t = s.clampLocked(t); t <= 1 {
		return solo(int64(n)), RunInline(n, body)
	}
	s.mode, s.n, s.body, s.weighted = modeRange, n, body, false
	s.bounds = grow(s.bounds, t+1)
	for w := 0; w <= t; w++ {
		s.bounds[w] = w * n / t
	}
	return s.runLocked(t)
}

// RunInline executes body(0, 0, n) on the calling goroutine —
// the single-worker fast path of every region form — converting a
// panic into the same *PanicError a resident worker's panic produces,
// so callers see one failure contract whatever the worker count.
func RunInline(n int, body func(worker, lo, hi int)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = NewPanicError(r, 0)
		}
	}()
	body(0, 0, n)
	return nil
}

// Dynamic runs body over [0, n) with workers claiming fixed-size
// chunks from a shared atomic counter — the load-balancing mode for
// skewed (RMAT-like) column distributions. chunk <= 0 selects n/(8t),
// at least 1.
func (ex *Executor) Dynamic(n, t, chunk int, body func(worker, lo, hi int)) (LoadStats, error) {
	t = Threads(t)
	if t > n {
		t = n
	}
	if n == 0 {
		return LoadStats{}, nil
	}
	if t <= 1 {
		return solo(int64(n)), RunInline(n, body)
	}
	s := ex.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if t = s.clampLocked(t); t <= 1 {
		return solo(int64(n)), RunInline(n, body)
	}
	if chunk <= 0 {
		// Heuristic from the worker count actually running (after the
		// budget clamp): a budget-capped region should not pay the CAS
		// traffic of chunks sized for the caller's larger request.
		chunk = n / (8 * t)
		if chunk < 1 {
			chunk = 1
		}
	}
	s.mode, s.n, s.body, s.weighted = modeDynamic, n, body, false
	s.chunk = int64(chunk)
	s.next.Store(0)
	return s.runLocked(t)
}

// Weighted divides [0, len(weights)) into contiguous ranges of
// near-equal total weight, with the partition scratch reused across
// regions. Zero and negative weights count as zero.
func (ex *Executor) Weighted(weights []int64, t int, body func(worker, lo, hi int)) (LoadStats, error) {
	return ex.s.weightedRun(weights, t, body, false)
}

// WeightedStealing starts from the same contiguous weighted ranges as
// Weighted, but workers claim their range in geometrically shrinking
// chunks and, once idle, steal the suffix half of the remaining range
// of the most-loaded (by remaining weight) peer. On skewed inputs this
// closes the tail-latency gap a mispredicted weighted partition
// leaves, without Dynamic's per-chunk shared-counter traffic on the
// balanced majority of regions.
func (ex *Executor) WeightedStealing(weights []int64, t int, body func(worker, lo, hi int)) (LoadStats, error) {
	return ex.s.weightedRun(weights, t, body, true)
}

func (s *execState) weightedRun(weights []int64, t int, body func(worker, lo, hi int), steal bool) (LoadStats, error) {
	n := len(weights)
	t = Threads(t)
	if t > n {
		t = n
	}
	if n == 0 {
		return LoadStats{}, nil
	}
	if t <= 1 {
		return solo(sumWeights(weights)), RunInline(n, body)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t = s.clampLocked(t); t <= 1 {
		return solo(sumWeights(weights)), RunInline(n, body)
	}
	s.n, s.body, s.weighted = n, body, true
	s.prefix, s.bounds = PartitionByWeightInto(weights, t, s.prefix, s.bounds)
	if steal && n <= stealMaxIndex {
		s.mode = modeSteal
		s.ranges = grow(s.ranges, t)
		for w := 0; w < t; w++ {
			s.ranges[w].v.Store(packRange(s.bounds[w], s.bounds[w+1]))
		}
	} else {
		s.mode = modeRange
	}
	return s.runLocked(t)
}

func sumWeights(weights []int64) int64 {
	var total int64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	return total
}

// clampLocked applies the worker budget and the closed state to a
// region's requested worker count. Callers hold mu.
func (s *execState) clampLocked(t int) int {
	if s.closed {
		return 1
	}
	if s.budget > 0 && t > s.budget {
		t = s.budget
	}
	return t
}

// runLocked executes the prepared region descriptor on parts workers:
// the caller as worker 0, resident goroutines (spawned on first need,
// woken by channel send) as 1..parts-1. Callers hold mu, so one
// region at a time owns the workers and the scratch. Returns the
// region's load statistics from the per-worker executed-weight
// counters, and the first panic any worker recovered (as a
// *PanicError) — the barrier always completes first, so the scratch
// is never reused while a surviving worker still runs.
//
//spkadd:allow(ctxblock) region barrier: workers always finish their share; a ctx-abandoned barrier would strand the shared scratch
func (s *execState) runLocked(parts int) (LoadStats, error) {
	for len(s.wake) < parts-1 {
		ch := make(chan struct{}, 1)
		s.wake = append(s.wake, ch)
		go s.workerLoop(ch, len(s.wake))
	}
	s.loads = grow(s.loads, parts)
	for i := 0; i < parts; i++ {
		s.loads[i].v = 0
	}
	s.parts = parts
	s.steals.Store(0)
	s.panicErr.Store(nil)
	s.wg.Add(parts - 1)
	for i := 0; i < parts-1; i++ {
		s.wake[i] <- struct{}{}
	}
	s.runWorkerRecover(0)
	s.wg.Wait()
	// Drop the body at the barrier: parked workers reference s, and a
	// body bound to the executor's owner (a workspace phase method
	// value) would otherwise keep the handle reachable, so the cleanup
	// backstop in newExecutor could never fire.
	s.body = nil
	var total, max int64
	for i := 0; i < parts; i++ {
		v := s.loads[i].v
		total += v
		if v > max {
			max = v
		}
	}
	ls := LoadStats{Workers: parts, Max: max, Mean: total / int64(parts), Steals: s.steals.Load()}
	if pe := s.panicErr.Load(); pe != nil {
		return ls, pe
	}
	return ls, nil
}

// workerLoop parks resident worker id on its wake channel; each token
// is one region to run. The channel closing (Close, or the handle's
// runtime cleanup) ends the loop. Panics in the region body are
// recovered inside runWorkerRecover, so a panicking body can never
// kill a resident worker (which would strand the region barrier and,
// goroutine panics being fatal, the whole process).
//
//spkadd:allow(ctxblock) resident worker: parked for the executor's lifetime, released by channel close
func (s *execState) workerLoop(wake chan struct{}, id int) {
	for range wake {
		s.runWorkerRecover(id)
		s.wg.Done()
	}
}

// runWorkerRecover executes worker w's share of the current region,
// converting a body panic into the region's sticky panicErr. Only the
// first panic is kept; later ones (other workers tripping over the
// same bug) add nothing.
func (s *execState) runWorkerRecover(w int) {
	defer func() {
		if r := recover(); r != nil {
			s.panicErr.CompareAndSwap(nil, NewPanicError(r, w))
		}
	}()
	s.runWorker(w)
}

// runWorker executes worker w's share of the current region.
func (s *execState) runWorker(w int) {
	faults.SleepOn(faults.WorkerStall, int64(w))
	switch s.mode {
	case modeRange:
		lo, hi := s.bounds[w], s.bounds[w+1]
		if lo < hi {
			s.body(w, lo, hi)
			s.loads[w].v += s.rangeWeight(lo, hi)
		}
	case modeDynamic:
		chunk := s.chunk
		n := int64(s.n)
		for {
			lo := s.next.Add(chunk) - chunk
			if lo >= n {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			s.body(w, int(lo), int(hi))
			s.loads[w].v += hi - lo
		}
	case modeSteal:
		s.stealLoop(w)
	}
}

// rangeWeight is the executed weight of [lo, hi): real weight under a
// weighted strategy, index count otherwise.
func (s *execState) rangeWeight(lo, hi int) int64 {
	if !s.weighted {
		return int64(hi - lo)
	}
	return s.prefix[hi] - s.prefix[lo]
}

// stealLoop is one worker of the WeightedStealing mode: drain the own
// range in geometrically shrinking chunks, then steal the suffix half
// of the most-loaded peer's remainder, installing it as the own range
// (so it can in turn be stolen from), until every range is empty.
// Ranges only ever shrink or split through CAS transitions, so every
// index is claimed by exactly one worker.
func (s *execState) stealLoop(w int) {
	for {
		for {
			lo, hi, ok := s.claimChunk(w)
			if !ok {
				break
			}
			s.body(w, lo, hi)
			s.loads[w].v += s.rangeWeight(lo, hi)
		}
		victim, best := -1, int64(0)
		for p := 0; p < s.parts; p++ {
			if p == w {
				continue
			}
			lo, hi := unpackRange(s.ranges[p].v.Load())
			if lo >= hi {
				continue
			}
			if rem := s.rangeWeight(lo, hi); rem > best {
				victim, best = p, rem
			}
		}
		if victim < 0 {
			// Every range is empty (chunks already claimed may still be
			// executing on their claimants; the region barrier waits).
			return
		}
		if s.stealFrom(w, victim) {
			s.steals.Add(1)
		}
		// On a failed CAS (the victim drained or another thief won),
		// rescan: total unclaimed work shrank either way.
	}
}

// claimChunk takes the next chunk — remaining/ownerChunkDenom, at
// least one index — off the front of worker w's own range.
func (s *execState) claimChunk(w int) (lo, hi int, ok bool) {
	for {
		cur := s.ranges[w].v.Load()
		clo, chi := unpackRange(cur)
		if clo >= chi {
			return 0, 0, false
		}
		c := (chi - clo) / ownerChunkDenom
		if c < 1 {
			c = 1
		}
		if s.ranges[w].v.CompareAndSwap(cur, packRange(clo+c, chi)) {
			return clo, clo + c, true
		}
	}
}

// stealFrom moves the suffix half [mid, hi) of the victim's remaining
// range into worker w's own (empty) range slot. The victim keeps the
// front half — it is closer to what the victim's cache just touched —
// and a remainder of one index moves whole, so a worker stuck on one
// expensive column cannot strand the indices queued behind it.
func (s *execState) stealFrom(w, victim int) bool {
	cur := s.ranges[victim].v.Load()
	lo, hi := unpackRange(cur)
	if lo >= hi {
		return false
	}
	mid := lo + (hi-lo)/2
	if !s.ranges[victim].v.CompareAndSwap(cur, packRange(lo, mid)) {
		return false
	}
	s.ranges[w].v.Store(packRange(mid, hi))
	return true
}
