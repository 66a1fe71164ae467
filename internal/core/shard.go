package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"spkadd/internal/faults"
	"spkadd/internal/matrix"
	"spkadd/internal/sched"
)

// This file implements the concurrent, column-sharded accumulation
// pool: the multi-producer counterpart of the single-goroutine
// Accumulator. The paper names streaming/batched SpKAdd as its future
// work (§V); the Accumulator covers one producer, but a serving
// system has many — and funneling them through one lock would
// serialize exactly the reduction work SpKAdd parallelizes.
//
// The pool shards the COLUMN space instead: the n output columns are
// split into S contiguous ranges (the same near-equal Span arithmetic
// as ColSplit and the static region), and each shard owns a resident
// Workspace, a running sum over its columns, and a pending queue.
// Push slices the incoming matrix into per-shard column views —
// zero-copy, via matrix.ColView — and enqueues each piece under that
// shard's lock only, so producers touching a shard never contend with
// a reduction in flight and different shards never contend at all.
// Each shard embeds the Accumulator's batched reduction (streamOf): one
// budget rule, claim and reduce path against the shard's budget share.
// A per-shard reducer goroutine drains the queue asynchronously,
// keeping every reduction k-way and its input within budget + one
// matrix, and a high-water mark (2x the shard budget) blocks producers
// that outrun their reducer instead of pinning unbounded queues. Sum
// barriers the reducers and stitches the per-shard sums — disjoint
// column ranges — into one CSC with a pure copy; no merge is needed,
// which is what makes column sharding the right axis to split on.
//
// Failure model (DESIGN.md §11): faults are contained per shard, and
// a shard fails one way. Push refuses every matrix and option set a
// reduction would reject, so in a race-free program a reduction fails
// only by panicking — in a kernel, on a worker, anywhere — or by an
// injected fault. Any failed reduction poisons its shard permanently:
// the failed batch is dropped (counted in ShardHealth.Dropped), a
// panicked workspace is quarantined (the scratch is mid-kernel
// garbage), and the shard discards everything it receives later. Its
// last good sum stays valid, because a failed reduction never touches
// the ping-pong buffer holding it. Healthy shards keep accepting and
// reducing work throughout; Sum stitches every shard's last good sum
// and reports the poisoned shards' errors alongside, and Health
// exposes the per-shard state.

// ErrPoolClosed is returned by Push after Close has been called, and
// by a second Close after the first completed.
var ErrPoolClosed = errors.New("spkadd: Pool used after Close")

// HealthState classifies one pool shard's condition.
type HealthState int

const (
	// HealthOK: the shard is reducing normally.
	HealthOK HealthState = iota
	// HealthPoisoned: a reduction failed, and its error is sticky. A
	// panic was recovered into a *PanicError and the shard's workspace
	// quarantined — its scratch state is indeterminate. Poisoning is
	// terminal: the shard discards further work and never recovers.
	// The last good sum is still served by Sum.
	HealthPoisoned
)

var healthNames = map[HealthState]string{
	HealthOK:       "ok",
	HealthPoisoned: "poisoned",
}

// String returns the state's display name.
func (h HealthState) String() string {
	if s, ok := healthNames[h]; ok {
		return s
	}
	return "Unknown"
}

// ShardHealth reports one shard's condition: its column range, its
// state, the error of a poisoned shard, and the queue/loss gauges a
// serving layer needs — how much work is still pending (the drain
// straggler report) and how many pushed pieces the shard has dropped
// since it was poisoned.
type ShardHealth struct {
	Shard      int
	Col0, Col1 int
	State      HealthState
	Err        error
	// Pending is the number of pushed pieces not yet folded into the
	// running sum — both queued and claimed by a reduction still in
	// flight; PendingBytes is the queued pieces' footprint. Nonzero
	// after a deadline-bounded drain identifies the straggler shards.
	Pending      int
	PendingBytes int64
	// Dropped counts pushed pieces this shard discarded: the failed
	// batch's and everything the poisoned shard received later.
	Dropped int64
}

// ShardError attributes a sticky shard failure to its column range, so
// a caller of Sum or Close can tell which part of the result is stale.
// It wraps the underlying error for errors.Is/As.
type ShardError struct {
	Shard      int
	Col0, Col1 int
	Err        error
}

// Error implements the error interface.
func (e *ShardError) Error() string {
	return fmt.Sprintf("spkadd: pool shard %d (columns [%d, %d)): %v", e.Shard, e.Col0, e.Col1, e.Err)
}

// Unwrap exposes the underlying shard failure.
func (e *ShardError) Unwrap() error { return e.Err }

// PoolOptionsOf configure a sharded accumulation pool.
type PoolOptionsOf[T matrix.Number] struct {
	// Shards is the column-shard count S. <=0 selects the heuristic
	// min(GOMAXPROCS, cols): one reducer per core saturates the
	// machine. Explicit values clamp to [1, cols] — a shard narrower
	// than one column would idle a reducer and dilute the budget.
	Shards int
	// BudgetBytes is the total reduction budget, divided evenly among
	// the shards; each shard reduces when its running sum plus pending
	// pieces would exceed its share (<=0 means 256MB total, like
	// NewAccumulator).
	BudgetBytes int64
	// FaultZone offsets this pool's fault-injection keys: shard i's
	// reduction sites report key FaultZone+i+1 and the pool's push
	// site reports key FaultZone, so a deterministic chaos schedule
	// can target one pool — one tenant of a serving daemon — when
	// several pools share the process. Zero keeps the 1-based shard
	// keys of a single-pool process. Purely an observability handle:
	// with no active injector the keys are never consulted.
	FaultZone int64
	// Add are the Options for the per-shard reductions. When Threads
	// is unset and the pool has more than one shard, reductions run
	// single-threaded: the shards themselves are the parallelism, and
	// letting every reducer run GOMAXPROCS workers would oversubscribe
	// the machine. Internally parallel reductions each run on their
	// shard workspace's resident executor.
	Add OptionsOf[T]
}

// PoolOptions is the float64 pool configuration.
type PoolOptions = PoolOptionsOf[matrix.Value]

// Pool is a concurrent, column-sharded streaming accumulator: many
// producer goroutines Push delta matrices while per-shard reducers
// fold them into per-column-range running sums, and Sum stitches the
// shards into the total. Push, Sum, Close, Health and K are safe for
// concurrent use, and Push linearizes with Sum and Close: a pushed
// matrix is observed whole or not at all, never some shards' slices
// without the others'. Push reserves space on every target shard
// before enqueueing to any, so a canceled PushContext also leaves the
// matrix wholly unobserved.
//
// Ownership: like the Accumulator, a pool keeps references into each
// pushed matrix until the shard reductions that absorb it complete;
// producers must not mutate a matrix after pushing it. The matrix
// returned by Sum is freshly allocated and caller-owned.
//
// Close stops the reducers after draining outstanding work; pushes
// that lose the race with Close fail whole with ErrPoolClosed, and a
// second Close after the first completed reports ErrPoolClosed too. A
// closed pool still answers Sum, Health and K.
type PoolOf[T matrix.Number] struct {
	rows, cols int
	shards     []*poolShardOf[T]
	faultZone  int64
	closed     atomic.Bool
	closeDone  atomic.Bool
	absorbed   atomic.Int64
	wg         sync.WaitGroup
	// reducersDone is closed by the close watcher once every reducer
	// has exited, so CloseContext can wait with a deadline.
	reducersDone chan struct{}

	// pushMu makes a multi-shard Push atomic against Sum and Close:
	// producers hold it shared while reserving and enqueueing, Sum and
	// Close hold it exclusively while establishing their cut. Without
	// it a Sum racing a Push could barrier between two of the push's
	// enqueues and stitch a matrix containing only some of its shards
	// — a total no prefix of pushes could produce. Reducers never
	// touch it, so reduction work proceeds under either hold.
	//
	//spkadd:lockorder(1)
	pushMu sync.RWMutex
}

// Pool is the float64 pool, the paper's element type.
type Pool = PoolOf[matrix.Value]

// NewPool returns a pool for rows x cols matrices. See PoolOptions for
// the shard-count and budget defaults.
func NewPool(rows, cols int, popt PoolOptions) *Pool {
	return NewPoolOf[matrix.Value](rows, cols, popt)
}

// NewPoolOf is NewPool for any supported element type.
func NewPoolOf[T matrix.Number](rows, cols int, popt PoolOptionsOf[T]) *PoolOf[T] {
	s := popt.Shards
	if s <= 0 {
		s = sched.Threads(0)
	}
	// A shard narrower than one column is useless — it would idle a
	// reducer goroutine and dilute every real shard's budget share —
	// so explicit requests clamp to the column count too.
	if s > cols {
		s = cols
	}
	if s < 1 {
		s = 1
	}
	budget := popt.BudgetBytes
	if budget <= 0 {
		budget = 256 << 20
	}
	shardBudget := budget / int64(s)
	if shardBudget < 1 {
		shardBudget = 1
	}
	opt := popt.Add
	if opt.Threads < 1 && s > 1 {
		opt.Threads = 1
	}
	p := &PoolOf[T]{
		rows: rows, cols: cols,
		shards:       make([]*poolShardOf[T], s),
		faultZone:    popt.FaultZone,
		reducersDone: make(chan struct{}),
	}
	for i := range p.shards {
		c0, c1 := sched.Span(cols, s, i)
		sh := &poolShardOf[T]{
			c0: c0, c1: c1, streamOf: streamOf[T]{budget: shardBudget, opt: opt},
			zone: popt.FaultZone + int64(i) + 1,
		}
		// Reductions report faults under the shard's 1-based zone, so
		// a chaos schedule can target one shard's kernels.
		sh.opt.faultKey = sh.zone
		sh.cond = sync.NewCond(&sh.mu)
		sh.done = sync.NewCond(&sh.mu)
		sh.space = sync.NewCond(&sh.mu)
		p.shards[i] = sh
		p.wg.Add(1)
		go sh.run(&p.wg)
	}
	return p
}

// Shards returns the pool's shard count.
func (p *PoolOf[T]) Shards() int { return len(p.shards) }

// Push enqueues one matrix for accumulation and returns without
// waiting for any reduction: the matrix is sliced into per-shard
// column views (zero-copy) and each non-empty piece is appended to
// its shard's queue. Producers block only while a Sum or Close is
// establishing its cut, or when a shard's queue has hit its
// high-water mark (2x the shard's budget share) — backpressure for
// producers outrunning the reducers. Reduction errors are deferred to
// Sum and Close; Push itself only fails on dimension mismatch, on an
// unsorted matrix under an algorithm that needs sorted input
// (ErrUnsortedInput), on options no reduction can run (such as
// ErrMonoidUnsupported), or on a closed pool.
func (p *PoolOf[T]) Push(a *matrix.CSCOf[T]) error {
	return p.PushContext(context.Background(), a)
}

// PushContext is Push with a cancellable high-water wait: a producer
// blocked on a full shard unblocks when ctx ends, returning an error
// wrapping ErrCanceled or ErrDeadline. The push stays atomic either
// way — space is reserved on every target shard before any piece is
// enqueued, and a cancellation mid-reserve rolls the reservations
// back — so a canceled push leaves no slice of the matrix behind and
// later Sums are unaffected.
func (p *PoolOf[T]) PushContext(ctx context.Context, a *matrix.CSCOf[T]) error {
	p.pushMu.RLock()
	defer p.pushMu.RUnlock()
	if p.closed.Load() {
		return ErrPoolClosed
	}
	if a.Rows != p.rows || a.Cols != p.cols {
		return fmt.Errorf("%w: pushed %dx%d, pool is %dx%d",
			ErrDimMismatch, a.Rows, a.Cols, p.rows, p.cols)
	}
	if err := admit(a, p.shards[0].opt); err != nil {
		return err
	}
	if err := faults.ErrOn(faults.FailedPush, p.faultZone); err != nil {
		if st := p.shards[0].opt.Stats; st != nil {
			st.FaultsInjected.Add(1)
		}
		return fmt.Errorf("spkadd: push failed: %w", err)
	}
	// Reserve-then-commit keeps a multi-shard push all-or-nothing even
	// under cancellation: first claim high-water space on every target
	// shard (the only step that can block or fail), then append the
	// pieces — which cannot fail — so no Sum ever observes a partial
	// push.
	for i, s := range p.shards {
		bytes := pieceBytes(a, s)
		if bytes == 0 {
			continue
		}
		if err := s.reserve(ctx, bytes); err != nil {
			for _, prev := range p.shards[:i] {
				if b := pieceBytes(a, prev); b != 0 {
					prev.unreserve(b)
				}
			}
			return err
		}
	}
	for _, s := range p.shards {
		bytes := pieceBytes(a, s)
		if bytes == 0 {
			continue
		}
		s.commit(a.ColView(s.c0, s.c1), bytes)
	}
	p.absorbed.Add(1)
	return nil
}

// pieceBytes is the in-memory footprint of a's slice of shard s's
// columns; 0 means the shard receives nothing (adding an empty piece
// is the identity, so it skips the queue entirely).
func pieceBytes[T matrix.Number](a *matrix.CSCOf[T], s *poolShardOf[T]) int64 {
	return (a.ColPtr[s.c1] - a.ColPtr[s.c0]) * entryBytesOf[T]()
}

// Sum waits for every healthy shard to reduce all pieces enqueued
// before the call, then stitches the per-shard running sums into one
// freshly allocated rows x cols matrix. The pool remains usable
// afterwards — Sum between pushes observes the running total, like
// Accumulator.Sum. A Push racing Sum is either included whole or
// excluded whole (Push linearizes with Sum; producers block for the
// duration of the barrier and stitch).
//
// Poisoned shards degrade the result instead of suppressing it: the
// returned matrix always stitches every shard's last successfully
// reduced sum — correct and current for healthy shards, stale (or
// empty) for poisoned ones — and the error joins one ShardError per
// poisoned shard so the caller can tell which column ranges are
// affected. A nil error means the sum is exact over every accepted
// push.
func (p *PoolOf[T]) Sum() (*matrix.CSCOf[T], error) {
	return p.SumContext(context.Background())
}

// SumContext is Sum with a cancellable drain barrier: when ctx ends
// before every healthy shard has drained, it returns an error wrapping
// ErrCanceled or ErrDeadline and no matrix. Cancellation is clean —
// the reducers keep draining in the background and a later Sum
// observes the same totals.
func (p *PoolOf[T]) SumContext(ctx context.Context) (*matrix.CSCOf[T], error) {
	// The exclusive hold cuts the push stream: no Push is mid-flight
	// while we barrier and stitch, so the result is the exact sum of a
	// prefix of each producer's pushes. Reducers drain independently
	// of pushMu, so the barrier cannot starve.
	p.pushMu.Lock()
	defer p.pushMu.Unlock()
	if err := p.barrier(ctx); err != nil {
		return nil, err
	}
	// Stitch under all shard locks (in index order), freezing every
	// shard's sum pointer. A reduction still in flight only reads the
	// current sum and writes its workspace's other ping-pong buffer;
	// it cannot install a result — or start a successor that would
	// overwrite storage we are copying — without the lock.
	for _, s := range p.shards {
		s.mu.Lock()
	}
	defer func() {
		for _, s := range p.shards {
			s.mu.Unlock()
		}
	}()
	total := 0
	for _, s := range p.shards {
		if s.sum != nil {
			total += s.sum.NNZ()
		}
	}
	out := matrix.NewCSCOf[T](p.rows, p.cols, total)
	var nnz int64
	for _, s := range p.shards {
		if s.sum == nil {
			for j := s.c0; j < s.c1; j++ {
				out.ColPtr[j+1] = nnz
			}
			continue
		}
		for j := 0; j < s.c1-s.c0; j++ {
			out.ColPtr[s.c0+j+1] = nnz + s.sum.ColPtr[j+1]
		}
		out.RowIdx = append(out.RowIdx, s.sum.RowIdx...)
		out.Val = append(out.Val, s.sum.Val...)
		nnz += s.sum.ColPtr[s.c1-s.c0]
	}
	return out, p.stickyErrLocked()
}

// barrier asks every shard to drain and waits until each has reduced
// everything enqueued before the request (poisoned shards stop
// blocking the barrier the moment their error goes sticky). Requests
// are issued to all shards first, so they drain concurrently, then
// awaited; ctx cancels the wait.
func (p *PoolOf[T]) barrier(ctx context.Context) error {
	reqs := make([]int64, len(p.shards))
	for i, s := range p.shards {
		s.mu.Lock()
		if !s.exited {
			s.flushReq++
			reqs[i] = s.flushReq
			s.cond.Signal()
		}
		s.mu.Unlock()
	}
	if ctx.Done() != nil {
		// Wake the barrier waits when ctx ends. The broadcast needs
		// each shard's lock, which a waiter holds except inside Wait —
		// so a waiter always observes either the broadcast or the
		// pre-Wait ctx check; no wakeup is lost.
		stop := context.AfterFunc(ctx, func() {
			for _, s := range p.shards {
				s.mu.Lock()
				s.done.Broadcast()
				s.mu.Unlock()
			}
		})
		defer stop()
	}
	for i, s := range p.shards {
		s.mu.Lock()
		for !s.exited && s.err == nil && s.flushAck < reqs[i] {
			if ctx.Err() != nil {
				s.mu.Unlock()
				return ctxErr(ctx)
			}
			s.done.Wait()
		}
		s.mu.Unlock()
	}
	return nil
}

// Close drains all shards, stops the reducer goroutines and returns
// the shards' sticky reduction errors (joined ShardErrors), if any.
// Close linearizes with Push: a racing Push either completes before
// the close cut or fails whole with ErrPoolClosed. A second Close
// after the first completed returns ErrPoolClosed — calling Close
// twice is a lifecycle bug worth surfacing, not corrupting on. The
// pool still answers Sum, Health and K afterwards.
func (p *PoolOf[T]) Close() error {
	return p.CloseContext(context.Background())
}

// CloseContext is Close with a cancellable drain wait: when ctx ends
// before the reducers finish, it returns an error wrapping
// ErrCanceled or ErrDeadline while the shutdown continues in the
// background — a later CloseContext waits for the same shutdown and
// reports the shards' sticky errors.
func (p *PoolOf[T]) CloseContext(ctx context.Context) error {
	p.pushMu.Lock()
	if !p.closed.Swap(true) {
		for _, s := range p.shards {
			s.mu.Lock()
			s.closed = true
			s.cond.Signal()
			s.space.Broadcast()
			s.mu.Unlock()
		}
		// The watcher decouples "reducers exited" from any single
		// waiter, so a deadline-bounded CloseContext can abandon the
		// wait while the shutdown completes behind it.
		go func() {
			p.wg.Wait()
			close(p.reducersDone)
		}()
	} else if p.closeDone.Load() {
		p.pushMu.Unlock()
		return ErrPoolClosed
	}
	p.pushMu.Unlock()
	if ctx.Done() != nil {
		select {
		case <-p.reducersDone:
		case <-ctx.Done():
			return ctxErr(ctx)
		}
	} else {
		<-p.reducersDone
	}
	p.closeDone.Store(true)
	return p.stickyErr()
}

// stickyErr joins the poisoned shards' sticky errors, one ShardError
// per poisoned shard; nil when every shard is healthy.
//
//spkadd:allow(ctxblock) short per-shard critical sections; nothing waits on external progress
func (p *PoolOf[T]) stickyErr() error {
	for _, s := range p.shards {
		s.mu.Lock()
	}
	defer func() {
		for _, s := range p.shards {
			s.mu.Unlock()
		}
	}()
	return p.stickyErrLocked()
}

// stickyErrLocked is stickyErr with all shard locks already held.
func (p *PoolOf[T]) stickyErrLocked() error {
	var errs []error
	for i, s := range p.shards {
		if s.err != nil {
			errs = append(errs, &ShardError{Shard: i, Col0: s.c0, Col1: s.c1, Err: s.err})
		}
	}
	return errors.Join(errs...)
}

// Health reports every shard's condition: OK or poisoned (a reduction
// failed; terminal). Poisoned shards keep serving their last good sum
// through Sum; Health is how a caller finds out that is what it is
// getting — including the queue-depth and dropped-piece gauges a
// serving layer turns into drain-straggler reports and loss metrics.
// Safe for concurrent use.
//
//spkadd:allow(ctxblock) short per-shard critical sections; nothing waits on external progress
func (p *PoolOf[T]) Health() []ShardHealth {
	out := make([]ShardHealth, len(p.shards))
	for i, s := range p.shards {
		s.mu.Lock()
		h := ShardHealth{
			Shard: i, Col0: s.c0, Col1: s.c1, State: HealthOK,
			Pending: len(s.pending) + s.inflight, PendingBytes: s.pendingBytes,
			Dropped: s.dropped,
		}
		if s.err != nil {
			h.State, h.Err = HealthPoisoned, s.err
		}
		out[i] = h
		s.mu.Unlock()
	}
	return out
}

// K returns the number of matrices absorbed so far.
func (p *PoolOf[T]) K() int { return int(p.absorbed.Load()) }

// Reductions returns the total number of k-way additions the shards
// have run, a measure of how the budget translated into batching.
//
//spkadd:allow(ctxblock) short per-shard critical sections; nothing waits on external progress
func (p *PoolOf[T]) Reductions() int {
	total := 0
	for _, s := range p.shards {
		s.mu.Lock()
		total += s.reductions
		s.mu.Unlock()
	}
	return total
}

// poolShardOf owns one contiguous column range [c0, c1) of the pool: a
// producer-facing pending queue and a reducer goroutine with a
// resident workspace and the range's running sum.
//
// Locking: mu guards the queue, the reservation counter, the
// flush/close handshake, the failure fields, the reduction count and
// the sum POINTER. The workspace, the batch and the sum's storage
// belong to the reducer goroutine; reductions run outside the lock so
// producers enqueue wait-free relative to reduction work. cond wakes
// the reducer (work over budget, flush requested, closed); done wakes
// flush waiters; space wakes producers blocked on the high-water mark.
type poolShardOf[T matrix.Number] struct {
	c0, c1 int
	zone   int64 // 1-based fault-injection key

	//spkadd:lockorder(2)
	mu       sync.Mutex
	cond     *sync.Cond // wakes the reducer
	done     *sync.Cond // wakes flush-barrier waiters
	space    *sync.Cond // wakes producers blocked on the high-water mark
	reserved int64      // bytes reserved by in-flight pushes, not yet committed
	flushReq int64
	flushAck int64
	closed   bool
	exited   bool
	err      error // sticky failure; non-nil means poisoned
	dropped  int64 // pushed pieces discarded: the failed batch's and all later ones
	inflight int   // pieces claimed by the reduction currently running

	streamOf[T]
}

// reserve claims bytes of high-water capacity for one push, blocking
// while the queue plus outstanding reservations are at the mark (2x
// the shard budget) — unless the shard is poisoned, whose queue only
// ever gets discarded, or the pool is closing. ctx cancels the wait.
func (s *poolShardOf[T]) reserve(ctx context.Context, bytes int64) error {
	var stop func() bool
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.pendingBytes+s.reserved >= 2*s.budget && !s.closed && s.err == nil {
		if ctx.Err() != nil {
			if stop != nil {
				stop()
			}
			return ctxErr(ctx)
		}
		if stop == nil && ctx.Done() != nil {
			// Arm the cancellation wakeup lazily: pushes that never
			// block (the steady state) pay nothing for it. The
			// broadcast needs mu, held here except inside Wait, so the
			// pre-Wait ctx check and the broadcast cannot both be
			// missed.
			stop = context.AfterFunc(ctx, func() {
				s.mu.Lock()
				s.space.Broadcast()
				s.mu.Unlock()
			})
		}
		s.cond.Signal()
		s.space.Wait()
	}
	if stop != nil {
		stop()
	}
	if s.closed {
		return ErrPoolClosed
	}
	s.reserved += bytes
	return nil
}

// unreserve rolls one push's reservation back (the push failed on a
// later shard), waking producers the freed capacity may admit.
func (s *poolShardOf[T]) unreserve(bytes int64) {
	s.mu.Lock()
	s.reserved -= bytes
	s.space.Broadcast()
	s.mu.Unlock()
}

// commit converts one push's reservation into a queued piece, waking
// the reducer if the batch is now worth reducing. Cannot fail: the
// reservation already holds the capacity.
func (s *poolShardOf[T]) commit(piece *matrix.CSCOf[T], bytes int64) {
	s.mu.Lock()
	s.reserved -= bytes
	s.pending = append(s.pending, piece)
	s.pendingBytes += bytes
	if s.due(0) {
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// wakeNeeded reports whether the reducer has anything to do. A
// poisoned shard with pending pieces still wakes: the reducer
// discards them so producers blocked on the high-water mark and
// barriers waiting on the queue are released. Callers hold mu.
func (s *poolShardOf[T]) wakeNeeded() bool {
	return s.closed || s.flushReq > s.flushAck || s.due(0) ||
		(s.err != nil && len(s.pending) > 0)
}

// claimBatch moves the next budget-bounded batch out of the queue into
// the reducer-private batch slice, freeing its high-water space at
// once, and returns the number of pieces claimed. Callers hold mu.
func (s *poolShardOf[T]) claimBatch() int {
	n, bytes := s.claim()
	s.drop(n, bytes)
	s.space.Broadcast()
	return n
}

// run is the shard's reducer goroutine: sleep until woken, reduce one
// budget-sized batch outside the lock, poison the shard when the batch
// fails, acknowledge flush barriers whenever the queue is empty, and
// exit once closed and drained. A poisoned shard discards everything
// it receives.
//
//spkadd:allow(ctxblock) reducer goroutine: lives for the pool's lifetime, woken by cond, exits on close; Push/Flush carry the context
func (s *poolShardOf[T]) run(wg *sync.WaitGroup) {
	defer wg.Done()
	s.mu.Lock()
	for {
		for !s.wakeNeeded() {
			s.cond.Wait()
		}
		if len(s.pending) > 0 {
			if s.err != nil {
				// Poisoned: discard instead of reducing, so flush
				// barriers, backpressured producers and Close still
				// terminate.
				s.dropped += int64(len(s.pending))
				s.drop(len(s.pending), s.pendingBytes)
				s.space.Broadcast()
				continue
			}
			claimed := s.claimBatch()
			s.inflight = claimed
			s.mu.Unlock()
			sum, err := s.reduceOnce()
			s.clearBatch()
			s.mu.Lock()
			s.inflight = 0
			if err != nil {
				s.fail(err, claimed)
				continue
			}
			s.sum = sum
			s.reductions++
			continue // the queue may already hold the next batch
		}
		if s.flushAck != s.flushReq {
			// Queue empty: everything enqueued before any outstanding
			// flush request is in the sum.
			s.flushAck = s.flushReq
			s.done.Broadcast()
		}
		if s.closed {
			s.exited = true
			s.done.Broadcast()
			s.mu.Unlock()
			// The reducer is the workspace's only user: release its
			// parked workers with it rather than at GC time.
			if s.ws != nil {
				s.ws.Close()
			}
			return
		}
	}
}

// fail poisons the shard with the claimed batch's error: the batch's
// pieces are dropped, a panicked workspace is quarantined (its scratch
// is mid-kernel garbage), the last good sum stays served, and everyone
// waiting on this shard is released. Callers hold mu.
func (s *poolShardOf[T]) fail(err error, claimed int) {
	s.err = err
	s.dropped += int64(claimed)
	if isPanicErr(err) {
		s.quarantine()
	}
	if st := s.opt.Stats; st != nil {
		st.ShardsPoisoned.Add(1)
	}
	s.done.Broadcast()
	s.space.Broadcast()
}

// reduceOnce reduces the claimed batch: the shard's fault-injection
// sites, then the shared reduction. Runs outside the shard lock.
func (s *poolShardOf[T]) reduceOnce() (*matrix.CSCOf[T], error) {
	if faults.SleepOn(faults.SlowReduction, s.zone) {
		if st := s.opt.Stats; st != nil {
			st.FaultsInjected.Add(1)
		}
	}
	if ferr := faults.ErrOn(faults.FailReduction, s.zone); ferr != nil {
		if st := s.opt.Stats; st != nil {
			st.FaultsInjected.Add(1)
		}
		return nil, ferr
	}
	return s.reduce(nil)
}
