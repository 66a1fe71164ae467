// Package core implements the paper's SpKAdd operation: computing
// B = Σ_{i=1..k} A_i over k sparse CSC matrices, with the full family
// of algorithms evaluated in the paper — 2-way incremental and 2-way
// tree additions (Algorithm 1 and its balanced variant), map-based
// 2-way baselines standing in for MKL, and the k-way heap, SPA, hash
// and sliding-hash algorithms (Algorithms 3-8).
//
// All algorithms are parallel over output columns with thread-private
// data structures and no synchronization inside a column (§III-A).
// Mul, the local multiply of the SUMMA simulation (§IV-E), runs on the
// same single-pass engine: each product column is a scaled k-way
// addition of columns of A.
package core

import (
	"sync/atomic"
	"time"
	"unsafe"

	"spkadd/internal/matrix"
	"spkadd/internal/ops"
	"spkadd/internal/sched"
)

// Algorithm selects the SpKAdd implementation.
type Algorithm int

const (
	// Auto picks SlidingHash, SPA or Hash (the paper's guidance in
	// Fig 2): SlidingHash when the estimated symbolic tables exceed
	// CacheBytes or Hash's staging would pass 1 GiB; SPA when each
	// worker's m-row accumulator fits in 1.5 MiB and the columns hold
	// at least one input entry per 48 rows on average; Hash otherwise.
	Auto Algorithm = iota
	// TwoWayIncremental adds matrices in pairs, left to right
	// (Algorithm 1): O(k^2 nd) work on ER inputs.
	TwoWayIncremental
	// TwoWayTree adds matrices pairwise up a balanced binary tree:
	// O(knd lg k) work.
	TwoWayTree
	// MapIncremental is TwoWayIncremental with a generic map-based
	// pair addition, the stand-in for the paper's MKL baseline rows.
	MapIncremental
	// MapTree is TwoWayTree over the map-based pair addition.
	MapTree
	// Heap is the k-way min-heap merge (Algorithm 3): O(knd lg k)
	// work, O(knd) I/O, O(Tk) memory. Requires sorted inputs.
	Heap
	// SPA is the sparse-accumulator algorithm (Algorithm 4): O(knd)
	// work, O(Tm) memory. Accepts unsorted inputs.
	SPA
	// Hash is the hash-table algorithm (Algorithm 5) in one pass:
	// each column's table is sized by its input nnz, so no symbolic
	// phase (Algorithm 6) runs. O(knd) work, O(T·Σ_i nnz(A_i(:,j)))
	// table memory. Accepts unsorted inputs.
	Hash
	// SlidingHash is Hash with tables capped to the last-level cache,
	// sliding over row ranges (Algorithms 7-8), on the two-pass
	// driver. Unpartitioned, it is the paper's two-phase hash
	// (Algorithms 5-6). Sorted inputs let it bound the row ranges by
	// binary search.
	SlidingHash
)

var algoNames = map[Algorithm]string{
	Auto:              "Auto",
	TwoWayIncremental: "2-way Incremental",
	TwoWayTree:        "2-way Tree",
	MapIncremental:    "Map Incremental",
	MapTree:           "Map Tree",
	Heap:              "Heap",
	SPA:               "SPA",
	Hash:              "Hash",
	SlidingHash:       "Sliding Hash",
}

// String returns the display name used in the paper's tables.
func (a Algorithm) String() string {
	if s, ok := algoNames[a]; ok {
		return s
	}
	return "Unknown"
}

// Algorithms lists every concrete implementation (everything but
// Auto), in the row order of the paper's Tables III-IV.
var Algorithms = []Algorithm{
	TwoWayIncremental, MapIncremental, TwoWayTree, MapTree,
	Heap, SPA, Hash, SlidingHash,
}

// Phases names an execution engine: how many passes the driver takes
// over the input matrices. It is not an option; OpStats.EngineUsed
// reports it. The paper's lower bound is O(knd) memory traffic. Hash,
// SPA and Heap run the single-pass upper-bound engine, which reads
// each input once. SlidingHash and the 2-way baselines keep their
// two-pass drivers, which read every input twice (once to size the
// output, once to fill it). See DESIGN.md §2.
type Phases int

const (
	// PhasesAuto is what EngineUsed reports before any addition has
	// been dispatched.
	PhasesAuto Phases = iota
	// PhasesTwoPass is the classic driver of §III-A: a symbolic phase
	// computes nnz(B(:,j)) for every column, the output is allocated
	// exactly, and a numeric phase fills it, reading all inputs twice.
	// SlidingHash runs on it (its unpartitioned case is the paper's
	// two-phase hash, Algorithms 5-6), and so do the 2-way baselines'
	// pairwise drivers.
	PhasesTwoPass
	// PhasesUpperBound reads each input once into a staging buffer
	// whose columns are sized by the Σ_i nnz(A_i(:,j)) upper bound,
	// then compacts in parallel. Peak extra memory is the total input
	// size. Hash, SPA and Heap run on it.
	PhasesUpperBound
)

var phasesNames = map[Phases]string{
	PhasesAuto:       "Auto",
	PhasesTwoPass:    "TwoPass",
	PhasesUpperBound: "UpperBound",
}

// String returns the engine's display name.
func (p Phases) String() string {
	if s, ok := phasesNames[p]; ok {
		return s
	}
	return "Unknown"
}

const (
	// BytesPerSymbolicEntry is b in Algorithm 7: the symbolic count
	// stores one 32-bit row index per slot (TableOf.Insert writes no
	// value).
	BytesPerSymbolicEntry = 4
	// BytesPerAddEntry is b in Algorithm 8 for the default float64
	// element type: an addition-phase slot holds a 32-bit row index and
	// a 64-bit value. Other element types size their slots with
	// entryBytesOf — float32 halves the value bytes, bool carries one.
	BytesPerAddEntry = 12
	// DefaultCacheBytes is the default last-level cache budget M
	// (the paper's Intel Skylake has a 32MB LLC).
	DefaultCacheBytes = 32 << 20
)

// OptionsOf configure an SpKAdd call over element type T. The zero
// value is valid for the arithmetic types: Auto algorithm, GOMAXPROCS
// threads, sorted output off, Skylake-like cache budget. Boolean
// matrices have no "+" and must select a monoid explicitly
// (ops.AnyFor[bool]() is the usual choice).
type OptionsOf[T matrix.Number] struct {
	Algorithm Algorithm
	// Threads is the worker count T; <1 means GOMAXPROCS.
	Threads int
	// SortedOutput requests ascending row order within each output
	// column. Heap, SPA, sliding-hash and the 2-way algorithms
	// produce sorted output essentially for free; Hash pays a
	// per-column sort (the paper's sorted-vs-unsorted hash gap in
	// Fig 6).
	SortedOutput bool
	// CacheBytes is M, the total last-level cache shared by the
	// workers, used by SlidingHash and Auto. <=0 means
	// DefaultCacheBytes.
	CacheBytes int64
	// Monoid selects the combine operation folded over colliding
	// entries: nil (or ops.PlusFor[T]()) means T's addition, the
	// paper's operation, served by specialized inlined kernels; any
	// other monoid — built-in Min/Max/Any/Count or user-defined — runs
	// the same engines through the generic combine path. Non-Plus
	// monoids are supported by the k-way algorithms only (the 2-way
	// baselines hardwire pairwise "+") and reject coefficients:
	// coeffs·A distributes over + but not over min, max or counting.
	// Boolean element types have no Plus, so a nil Monoid is a
	// validation error for them. See internal/ops and DESIGN.md §8.
	Monoid *ops.MonoidOf[T]
	// MaxTableEntries, when positive, caps sliding-hash tables at the
	// given entry count instead of deriving the cap from CacheBytes.
	// This is the knob behind the paper's Fig 4 table-size sweeps.
	MaxTableEntries int
	// Stats, when non-nil, accumulates work counters (hash probes,
	// heap ops, SPA touches, entries moved) for complexity tests and
	// the ablation benches.
	Stats *OpStats
	// faultKey is the fault-injection zone the call's kernel sites
	// report: a Pool shard sets its 1-based shard index so chaos
	// schedules can target one shard, direct calls use zone 0.
	// Unexported — fault targeting is test machinery, not public API.
	faultKey int64
}

// Options are the float64 call options, the paper's configuration.
type Options = OptionsOf[matrix.Value]

func (o OptionsOf[T]) cacheBytes() int64 {
	if o.CacheBytes <= 0 {
		return DefaultCacheBytes
	}
	return o.CacheBytes
}

// entryBytesOf is the in-memory footprint of one stored (row, value)
// entry of element type T: a 4-byte index plus T's width — 12 bytes
// for float64/int64, 8 for float32/int32, 5 for bool. It parameterizes
// every byte-budget heuristic (engine selection, streaming budgets,
// pool shares) so float32 workloads really see twice the entries per
// cache line and per budget.
func entryBytesOf[T matrix.Number]() int64 {
	var z T
	return BytesPerSymbolicEntry + int64(unsafe.Sizeof(z))
}

// OpStats aggregates work counters across workers. All fields are
// updated atomically at phase boundaries, so the overhead inside
// kernels is zero.
type OpStats struct {
	HashProbes atomic.Int64 //spkadd:atomic
	HeapOps    atomic.Int64 //spkadd:atomic
	SPATouches atomic.Int64 //spkadd:atomic
	// EntriesMoved counts entries written to materialized matrix
	// storage: the intermediate sums of the 2-way algorithms and the
	// final output. Scratch structures (hash tables, SPAs, the
	// single-pass engine's staging buffer) don't count, so the counter
	// is comparable across engines.
	EntriesMoved atomic.Int64 //spkadd:atomic
	// SymProbes counts the subset of HashProbes spent in the symbolic
	// (output-sizing) tables. Only SlidingHash sizes the output
	// symbolically; the single-pass engine of Hash, SPA and Heap never
	// does, so SymProbes stays zero under PhasesUpperBound — the
	// observable proof that each input is read exactly once.
	SymProbes atomic.Int64 //spkadd:atomic
	// engineUsed records the engine the most recent dispatched
	// addition ran (read via EngineUsed). The algorithm decides it:
	// PhasesUpperBound for Hash, SPA and Heap, PhasesTwoPass for
	// SlidingHash and the 2-way baselines. Stored as engine+1 so the
	// zero value means "no addition dispatched yet".
	engineUsed atomic.Int64 //spkadd:atomic
	// Steals counts range suffixes a weighted region moved from a busy
	// worker to an idle one, across all recorded regions.
	Steals atomic.Int64 //spkadd:atomic
	// SchedRegions counts the multi-worker parallel regions (one per
	// phase per addition: symbolic, numeric, single pass, compact, ...)
	// the executor dispatched; single-worker phases run inline and are
	// not regions. SchedMaxWeight and SchedMeanWeight accumulate each
	// region's maximum and mean per-worker executed column weight, so
	// LoadImbalance reports the observed balance.
	SchedRegions    atomic.Int64 //spkadd:atomic
	SchedMaxWeight  atomic.Int64 //spkadd:atomic
	SchedMeanWeight atomic.Int64 //spkadd:atomic
	// Fault-tolerance counters. PanicsRecovered counts panics caught at
	// a recovery boundary (executor region, shard reducer, accumulator
	// flush) and converted to errors, once per workspace the panic made
	// its owner quarantine — a pooled call's, an Adder's, an
	// Accumulator's or a Pool shard's; Retries counts reduction attempts
	// beyond the first made by the pool's bounded-retry machinery;
	// FaultsInjected counts faults the internal/faults harness fired
	// into code observed by these stats — zero in production, where no
	// injector is active.
	PanicsRecovered atomic.Int64 //spkadd:atomic
	Retries         atomic.Int64 //spkadd:atomic
	FaultsInjected  atomic.Int64 //spkadd:atomic
	// ShardsDegraded and ShardsPoisoned count pool-shard health
	// transitions: a shard entering the degraded state (sticky
	// non-panic error after retries were exhausted) or the poisoned
	// state (recovered panic; workspace quarantined). They count
	// transitions, not current state — Pool.Health reports the latter.
	// ShardsRecovered counts the reverse transition: a degraded shard
	// whose next successful reduction cleared it back to OK (poisoned
	// shards never recover).
	ShardsDegraded  atomic.Int64 //spkadd:atomic
	ShardsPoisoned  atomic.Int64 //spkadd:atomic
	ShardsRecovered atomic.Int64 //spkadd:atomic
}

// RecordRegion folds one parallel region's load statistics into the
// scheduling counters. Regions that ran inline on a single worker
// (Workers <= 1) carry no balance information and are skipped.
func (s *OpStats) RecordRegion(ls sched.LoadStats) {
	if ls.Workers <= 1 {
		return
	}
	s.SchedRegions.Add(1)
	s.SchedMaxWeight.Add(ls.Max)
	s.SchedMeanWeight.Add(ls.Mean)
	s.Steals.Add(ls.Steals)
}

// LoadImbalance returns the accumulated max-over-mean per-worker
// weight across all recorded regions: 1.0 is a perfectly balanced
// run, k means the slowest worker carried k times the average — the
// factor by which imbalance stretches the phases' critical path. With
// no multi-worker regions recorded it returns 1.
func (s *OpStats) LoadImbalance() float64 {
	mean := s.SchedMeanWeight.Load()
	if mean == 0 {
		return 1
	}
	return float64(s.SchedMaxWeight.Load()) / float64(mean)
}

// RecordEngine notes the engine a dispatched addition resolved to.
func (s *OpStats) RecordEngine(p Phases) { s.engineUsed.Store(int64(p) + 1) }

// EngineUsed returns the execution engine the most recent addition
// observed by these stats ran, and whether any addition has been
// dispatched (single-matrix copies dispatch no engine). With
// Algorithm Auto it tells which way the call resolved: PhasesTwoPass
// means Auto picked SlidingHash, PhasesUpperBound plain Hash.
func (s *OpStats) EngineUsed() (Phases, bool) {
	v := s.engineUsed.Load()
	if v == 0 {
		return PhasesAuto, false
	}
	return Phases(v - 1), true
}

// PhaseTimings reports the wall-clock split between the symbolic
// (output-size) phase and the numeric addition phase, the series shown
// separately in the paper's Fig 4. Only SlidingHash has a symbolic
// phase; the single-pass engine of Hash, SPA and Heap and the 2-way
// algorithms report their full time as Numeric.
type PhaseTimings struct {
	Symbolic time.Duration
	Numeric  time.Duration
}

// Total returns the summed phase time.
func (p PhaseTimings) Total() time.Duration { return p.Symbolic + p.Numeric }
