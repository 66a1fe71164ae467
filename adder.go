package spkadd

import (
	"context"
	"errors"
	"sync/atomic"

	"spkadd/internal/core"
)

// ErrAdderInUse is returned when an Adder is called from a second
// goroutine while a call is already in flight. An Adder owns one set
// of scratch structures; detecting the overlap and failing fast is
// strictly better than silently corrupting both results. Use one
// Adder per goroutine, or the package-level Add, which draws a
// private workspace from a pool per call.
var ErrAdderInUse = errors.New("spkadd: Adder used from multiple goroutines concurrently")

// Adder performs repeated SpKAdd calls with amortized allocations: it
// owns every scratch structure an addition needs (per-worker hash
// tables, sparse accumulators, heaps, the single-pass engine's staging
// buffer, per-column size arrays) plus recyclable output storage, so
// in steady state — once shapes stop growing — a call allocates
// nothing, whatever the engine, schedule or input size. For the repeated small and medium additions of
// streaming workloads this roughly halves the cost of each call
// relative to one-shot Add (see `spkadd-bench -exp reuse` and
// BenchmarkAdderReuse).
//
// Ownership: the matrix returned by Add/AddTimed/AddScaled is owned
// by the Adder and remains valid only until the next call on the same
// Adder; Clone it to keep it longer. The previous call's result may
// safely appear among the next call's inputs (output buffers
// alternate internally), which is exactly the streaming pattern
//
//	sum, _ = ad.Add([]*spkadd.Matrix{sum, delta}, opt)
//
// Results older than the previous call must not be passed back in.
// Note that with a monoid that maps input values (Any, Count) this
// pattern re-maps the running sum on every call — use an Accumulator
// for those, which folds its sum back in unmapped.
//
// An Adder is not safe for concurrent use. Calls overlapping in time
// return ErrAdderInUse rather than corrupting state. The zero value
// is ready to use.
//
// Panics inside an addition (a caller mutating inputs mid-call, an
// injected fault, an invariant check firing) do not kill the process:
// they are recovered at the nearest region boundary and surface as a
// *PanicError. A panicked Adder is poisoned — its workspace held
// half-accumulated state and is quarantined, and every later call
// returns the same sticky *PanicError — because results computed on
// corrupt scratch would be silently wrong. Discard it and build a new
// one.
type AdderOf[T Number] struct {
	busy atomic.Bool
	ws   *core.WorkspaceOf[T]
	// err is the sticky poison error: the first *PanicError a call
	// returned. Only read/written while busy is held.
	err error
}

// Adder is the float64 adder, the paper's element type. AdderOf
// instantiates the same machinery for float32, int32, int64 and bool
// — a float32 Adder moves half the value bytes per entry, the win
// `spkadd-bench -exp dtype` measures.
type Adder = AdderOf[Value]

// NewAdder returns an Adder with its workspace pre-created. The first
// additions still size the scratch structures to the workload; buffers
// only ever grow, so a warmed Adder stays allocation-free while input
// shapes do not exceed what it has seen.
func NewAdder() *Adder {
	return NewAdderOf[Value]()
}

// NewAdderOf is NewAdder for any supported element type. Element
// types narrower than float64 (float32, int32, bool) halve or better
// the value-array traffic of every call; bool requires an explicit
// Options.Monoid (AnyFor) since it has no "+".
func NewAdderOf[T Number]() *AdderOf[T] {
	return &AdderOf[T]{ws: core.NewWorkspaceOf[T](true)}
}

// acquire takes the adder's busy flag and returns its workspace,
// creating it on first use of a zero-value Adder. The atomic flag
// orders the lazy initialization: only the goroutine holding the flag
// touches ad.ws.
func (ad *AdderOf[T]) acquire() (*core.WorkspaceOf[T], error) {
	if !ad.busy.CompareAndSwap(false, true) {
		return nil, ErrAdderInUse
	}
	if ad.err != nil {
		err := ad.err
		ad.busy.Store(false)
		return nil, err
	}
	if ad.ws == nil {
		ad.ws = core.NewWorkspaceOf[T](true)
	}
	return ad.ws, nil
}

func (ad *AdderOf[T]) release() { ad.busy.Store(false) }

// note records a finished call's error, poisoning the Adder when it
// carries a recovered panic: the workspace's scratch — and possibly
// the resident output buffers — are mid-kernel garbage, so it is
// quarantined rather than reused, which closes it and counts the panic
// in the call's stats st. Called while busy is held.
func (ad *AdderOf[T]) note(err error, st *OpStats) {
	if err == nil {
		return
	}
	// pe is declared after the nil check: its address escapes into
	// errors.As, and hoisting the heap allocation to function entry
	// would cost the zero-alloc steady state one object per call.
	var pe *PanicError
	if errors.As(err, &pe) {
		ad.err = err
		ad.ws.Quarantine(st)
		ad.ws = nil
	}
}

// Add computes the sum of the given matrices like the package-level
// Add, reusing the Adder's scratch and output storage. The result is
// owned by the Adder; see the type documentation for the lifetime
// rules.
func (ad *AdderOf[T]) Add(as []*MatrixOf[T], opt OptionsOf[T]) (*MatrixOf[T], error) {
	ws, err := ad.acquire()
	if err != nil {
		return nil, err
	}
	defer ad.release()
	b, err := ws.Add(as, opt)
	ad.note(err, opt.Stats)
	return b, err
}

// AddContext is Add with cooperative cancellation: the engines check
// ctx at phase boundaries and abandon the call with an error wrapping
// ErrCanceled or ErrDeadline. Cancellation is clean — no result is
// installed, the Adder's scratch stays reusable, and the next call
// proceeds normally.
func (ad *AdderOf[T]) AddContext(ctx context.Context, as []*MatrixOf[T], opt OptionsOf[T]) (*MatrixOf[T], error) {
	ws, err := ad.acquire()
	if err != nil {
		return nil, err
	}
	defer ad.release()
	b, err := ws.AddContext(ctx, as, opt)
	ad.note(err, opt.Stats)
	return b, err
}

// AddTimed is Add, additionally reporting the symbolic/numeric phase
// split.
func (ad *AdderOf[T]) AddTimed(as []*MatrixOf[T], opt OptionsOf[T]) (*MatrixOf[T], PhaseTimings, error) {
	ws, err := ad.acquire()
	if err != nil {
		return nil, PhaseTimings{}, err
	}
	defer ad.release()
	b, pt, err := ws.AddTimed(as, opt)
	ad.note(err, opt.Stats)
	return b, pt, err
}

// AddScaled computes the weighted sum B = Σ coeffs[i]·A_i like the
// package-level AddScaled, reusing the Adder's scratch and output
// storage.
func (ad *AdderOf[T]) AddScaled(as []*MatrixOf[T], coeffs []T, opt OptionsOf[T]) (*MatrixOf[T], error) {
	ws, err := ad.acquire()
	if err != nil {
		return nil, err
	}
	defer ad.release()
	b, err := ws.AddScaled(as, coeffs, opt)
	ad.note(err, opt.Stats)
	return b, err
}
