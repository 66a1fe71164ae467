package spkadd

import (
	"spkadd/internal/core"
)

// Pool is a concurrent, column-sharded streaming accumulator: the
// multi-producer counterpart of Accumulator. Any number of goroutines
// Push delta matrices; the column space is split into S shards, each
// owning a resident workspace, a pending queue and a running sum over
// its column range, and per-shard reducer goroutines fold pushed
// pieces in k-way, budget-triggered batches. Sum barriers the
// reducers and stitches the disjoint per-shard sums into one matrix.
//
// Push slices each incoming matrix into per-shard column views
// without copying the nonzeros and enqueues under per-shard locks
// only, so producers do not contend with reductions in flight or with
// producers touching other shards; producers block only at a shard's
// high-water mark (backpressure when they outrun the reducers) or
// while a Sum or Close establishes its cut — a push racing Sum or
// Close is observed whole or not at all. Like Accumulator, the pool
// keeps references into pushed matrices until they are reduced; do
// not mutate a matrix after pushing it. The matrix returned by Sum is
// freshly allocated and caller-owned.
//
// Use a Pool when many goroutines stream deltas into one running sum
// (ingest firehoses, fan-in aggregation); use Accumulator or Adder
// for single-goroutine streams. See DESIGN.md §6.
//
// Reductions run under PoolOptions.Add, including its Monoid: a pool
// can stream structural unions (Any) or edge frequencies (Count) as
// easily as sums — each shard folds its running sum back in unmapped,
// so mapped monoids accumulate correctly across reductions.
//
// Failures are contained per shard (DESIGN.md §11): a reduction that
// fails, by a recovered panic or an error, poisons its shard
// permanently. The failed batch is dropped, a panicked workspace is
// quarantined, and the shard discards everything it receives later,
// recording the loss in ShardHealth.Dropped. Healthy shards keep
// reducing throughout. Sum always returns the stitch of every shard's
// last good sum, joined with one ShardError per poisoned shard, so a
// nil error means the sum is exact over every accepted push; Health
// reports each shard's state plus its queue-depth and dropped-piece
// gauges. PushContext, SumContext and CloseContext bound the blocking
// operations (backpressure waits, drain barriers, shutdown) with a
// context.
type Pool = core.Pool

// PoolOptions configure NewPool: shard count (default
// min(GOMAXPROCS, cols)), total reduction budget in bytes (divided
// among shards; <=0 means 256MB), a fault-injection zone, and the
// Options each per-shard reduction runs with. Internally parallel
// reductions each run on their shard workspace's resident executor.
type PoolOptions = core.PoolOptions

// NewPool returns a sharded accumulation pool for rows x cols
// matrices and starts its reducer goroutines; call Close to stop
// them. The zero PoolOptions value is ready to use.
func NewPool(rows, cols int, popt PoolOptions) *Pool {
	return core.NewPool(rows, cols, popt)
}

// NewPoolOf is NewPool for any supported element type: a float32 pool
// halves the value bytes each shard's reductions move, an int64 pool
// counts exactly, a bool pool (Monoid: AnyFor) unions structure.
func NewPoolOf[T Number](rows, cols int, popt PoolOptionsOf[T]) *PoolOf[T] {
	return core.NewPoolOf[T](rows, cols, popt)
}
