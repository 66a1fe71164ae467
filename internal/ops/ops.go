// Package ops defines the combine operations SpKAdd accumulates
// under. The paper's kernels are really k-way merge-and-combine
// kernels: every algorithm (heap, SPA, hash, sliding hash) visits the
// union of the inputs' nonzero positions and folds colliding entries
// with a binary operation. The paper — and this library's default —
// fix that operation to float64 addition, but nothing in the
// algorithms depends on "+": any commutative, associative operation
// with an identity (a commutative monoid, GraphBLAS's eWiseAdd
// operand) merges the same way and inherits the same complexity and
// memory-traffic bounds.
//
// A MonoidOf[T] generalizes the element-wise semantics only. Sparsity
// semantics are unchanged: the output structure is the union of the
// input structures, combine applies where entries collide, and a
// position absent from every input stays absent — the identity is
// never materialized (see DESIGN.md §8 on identity versus stored-zero
// semantics).
//
// Built-ins cover the workloads the ROADMAP names: Plus (numeric
// accumulation, the paper's operation and the only one that admits
// per-matrix coefficients), Min and Max (min-plus/tropical
// ensembling, max-pooling), Any (structural union of graph
// snapshots), and Count (edge/occurrence frequency). The float64
// canonical instances keep their PR 4 names (Plus, Min, ...); every
// other instantiation reaches its canonical instances through the
// *For functions (PlusFor, AnyFor, ...), which return one shared
// singleton per (monoid, T) pair so the engines' pointer-identity
// fast-path checks generalize unchanged.
package ops

import (
	"math"

	"spkadd/internal/matrix"
)

// MonoidOf is a commutative monoid over values of element type T: the
// pluggable combine operation of an SpKAdd call. Combine must be
// associative and commutative — the engines traverse entries in
// engine- and schedule-dependent orders, and only
// associativity+commutativity make every order produce the same result
// (for floating-point non-associativity the engines compensate by
// combining in a deterministic per-column order, so results are still
// bit-identical across engines; see the parity suite).
type MonoidOf[T matrix.Number] struct {
	// Name identifies the monoid in stats, benches and errors.
	Name string

	// Identity is the combine identity: Combine(Identity, v) == v.
	// It is never stored in outputs — absent positions stay absent —
	// but defines DropIdentity and the dense reference semantics.
	Identity T

	// Combine folds two values. Required; must be associative and
	// commutative.
	Combine func(a, b T) T

	// MapInput, when non-nil, transforms every stored input entry
	// before it participates in combining: Any and Count map values
	// to 1 so presence, not magnitude, is accumulated. Streaming
	// accumulators (Accumulator, Pool) apply it to fresh inputs only
	// — a running sum is already in the monoid's result domain and is
	// folded back in unmapped.
	MapInput func(v T) T

	// DropIdentity selects the drop-identity output policy: entries
	// whose combined value equals Identity are removed from the
	// output instead of stored. Only the single-pass engine of Hash,
	// SPA and Heap can honor it (SlidingHash's two-pass driver sizes
	// the output structurally, before values exist), so requesting it
	// with SlidingHash is a validation error; Auto resolves to Hash or
	// SPA.
	DropIdentity bool
}

// Monoid is the float64 monoid, the paper's value domain.
type Monoid = MonoidOf[matrix.Value]

// Valid reports whether the monoid is usable: a non-empty name and a
// combine function.
func (m *MonoidOf[T]) Valid() bool {
	return m != nil && m.Name != "" && m.Combine != nil
}

// String returns the monoid's display name.
func (m *MonoidOf[T]) String() string {
	if m == nil {
		return Plus.Name
	}
	return m.Name
}

// one is the MapInput of the structural monoids: every stored entry
// participates as 1, whatever its value.
func one(matrix.Value) matrix.Value { return 1 }

// oneOf is the generic MapInput of the structural monoids (bool: true).
func oneOf[T matrix.Number](T) T { return matrix.FromFloat64[T](1) }

// Built-in monoids. These are canonical instances: the engines
// recognize Plus by identity (pointer equality) and run their
// specialized inlined "+" path; every other monoid — built-in or
// user-defined — goes through the generic combine path.
var (
	// Plus is numeric addition, the paper's operation and the
	// default (a nil Options.Monoid means Plus). It is the only
	// monoid that supports per-matrix coefficients: coeffs·A
	// distributes over + but not over min, max or counting.
	Plus = &Monoid{
		Name:     "Plus",
		Identity: 0,
		Combine:  func(a, b matrix.Value) matrix.Value { return a + b },
	}

	// Min keeps the smallest colliding value (tropical/min-plus
	// ensembling). The identity is +Inf. NaNs propagate, matching
	// Go's built-in min.
	Min = &Monoid{
		Name:     "Min",
		Identity: math.Inf(1),
		Combine:  func(a, b matrix.Value) matrix.Value { return min(a, b) },
	}

	// Max keeps the largest colliding value (max-pooling). The
	// identity is -Inf.
	Max = &Monoid{
		Name:     "Max",
		Identity: math.Inf(-1),
		Combine:  func(a, b matrix.Value) matrix.Value { return max(a, b) },
	}

	// Any is the structural (boolean) union: a position present in
	// any input holds 1 in the output. Input values are ignored —
	// MapInput sends every stored entry to 1 — so unions of weighted
	// snapshots are well-defined.
	Any = &Monoid{
		Name:     "Any",
		Identity: 0,
		Combine: func(a, b matrix.Value) matrix.Value {
			if a != 0 || b != 0 {
				return 1
			}
			return 0
		},
		MapInput: one,
	}

	// Count is occurrence frequency: a position's output value is
	// the number of inputs storing an entry there. MapInput sends
	// every stored entry to 1 and Combine adds, so counts stay exact
	// integers up to 2^53 inputs (exact without bound on the integer
	// instantiations).
	Count = &Monoid{
		Name:     "Count",
		Identity: 0,
		Combine:  func(a, b matrix.Value) matrix.Value { return a + b },
		MapInput: one,
	}
)

// Builtins lists the built-in float64 monoids, Plus first.
var Builtins = []*Monoid{Plus, Min, Max, Any, Count}

// Canonical non-float64 instantiations. One singleton per (monoid, T)
// pair, reached through the *For functions; sharing one instance per
// pair is what lets the planner's "is this Plus?" pointer check — and
// user code comparing against the canonical instances — work for every
// T exactly as it does for float64.
var (
	plusF32 = &MonoidOf[float32]{Name: "Plus", Combine: func(a, b float32) float32 { return a + b }}
	plusI32 = &MonoidOf[int32]{Name: "Plus", Combine: func(a, b int32) int32 { return a + b }}
	plusI64 = &MonoidOf[int64]{Name: "Plus", Combine: func(a, b int64) int64 { return a + b }}

	minF32 = &MonoidOf[float32]{Name: "Min", Identity: float32(math.Inf(1)),
		Combine: func(a, b float32) float32 { return min(a, b) }}
	minI32 = &MonoidOf[int32]{Name: "Min", Identity: math.MaxInt32,
		Combine: func(a, b int32) int32 { return min(a, b) }}
	minI64 = &MonoidOf[int64]{Name: "Min", Identity: math.MaxInt64,
		Combine: func(a, b int64) int64 { return min(a, b) }}

	maxF32 = &MonoidOf[float32]{Name: "Max", Identity: float32(math.Inf(-1)),
		Combine: func(a, b float32) float32 { return max(a, b) }}
	maxI32 = &MonoidOf[int32]{Name: "Max", Identity: math.MinInt32,
		Combine: func(a, b int32) int32 { return max(a, b) }}
	maxI64 = &MonoidOf[int64]{Name: "Max", Identity: math.MinInt64,
		Combine: func(a, b int64) int64 { return max(a, b) }}

	anyF32 = &MonoidOf[float32]{Name: "Any",
		Combine:  func(a, b float32) float32 { return anyCombine(a, b) },
		MapInput: oneOf[float32]}
	anyI32 = &MonoidOf[int32]{Name: "Any",
		Combine:  func(a, b int32) int32 { return anyCombine(a, b) },
		MapInput: oneOf[int32]}
	anyI64 = &MonoidOf[int64]{Name: "Any",
		Combine:  func(a, b int64) int64 { return anyCombine(a, b) },
		MapInput: oneOf[int64]}
	anyB = &MonoidOf[bool]{Name: "Any",
		Combine:  func(a, b bool) bool { return a || b },
		MapInput: func(bool) bool { return true }}

	countF32 = &MonoidOf[float32]{Name: "Count",
		Combine: func(a, b float32) float32 { return a + b }, MapInput: oneOf[float32]}
	countI32 = &MonoidOf[int32]{Name: "Count",
		Combine: func(a, b int32) int32 { return a + b }, MapInput: oneOf[int32]}
	countI64 = &MonoidOf[int64]{Name: "Count",
		Combine: func(a, b int64) int64 { return a + b }, MapInput: oneOf[int64]}
)

func anyCombine[T matrix.Arith](a, b T) T {
	if a != 0 || b != 0 {
		return 1
	}
	return 0
}

// PlusFor returns the canonical Plus monoid over T, or nil for bool:
// boolean matrices have no "+" and must select an explicit monoid
// (AnyFor[bool]). PlusFor[float64]() is Plus itself — same pointer —
// so identity checks written against the float64 built-ins hold for
// values obtained either way.
func PlusFor[T matrix.Number]() *MonoidOf[T] {
	var z T
	switch any(z).(type) {
	case float64:
		return any(Plus).(*MonoidOf[T])
	case float32:
		return any(plusF32).(*MonoidOf[T])
	case int32:
		return any(plusI32).(*MonoidOf[T])
	case int64:
		return any(plusI64).(*MonoidOf[T])
	}
	return nil
}

// MinFor returns the canonical Min monoid over T (nil for bool).
func MinFor[T matrix.Number]() *MonoidOf[T] {
	var z T
	switch any(z).(type) {
	case float64:
		return any(Min).(*MonoidOf[T])
	case float32:
		return any(minF32).(*MonoidOf[T])
	case int32:
		return any(minI32).(*MonoidOf[T])
	case int64:
		return any(minI64).(*MonoidOf[T])
	}
	return nil
}

// MaxFor returns the canonical Max monoid over T (nil for bool).
func MaxFor[T matrix.Number]() *MonoidOf[T] {
	var z T
	switch any(z).(type) {
	case float64:
		return any(Max).(*MonoidOf[T])
	case float32:
		return any(maxF32).(*MonoidOf[T])
	case int32:
		return any(maxI32).(*MonoidOf[T])
	case int64:
		return any(maxI64).(*MonoidOf[T])
	}
	return nil
}

// AnyFor returns the canonical Any monoid over T — the only built-in
// defined for every T including bool, where it is the boolean OR of
// reachability overlays.
func AnyFor[T matrix.Number]() *MonoidOf[T] {
	var z T
	switch any(z).(type) {
	case float64:
		return any(Any).(*MonoidOf[T])
	case float32:
		return any(anyF32).(*MonoidOf[T])
	case int32:
		return any(anyI32).(*MonoidOf[T])
	case int64:
		return any(anyI64).(*MonoidOf[T])
	case bool:
		return any(anyB).(*MonoidOf[T])
	}
	return nil
}

// CountFor returns the canonical Count monoid over T (nil for bool,
// whose only arithmetic is OR — counts need a numeric T).
func CountFor[T matrix.Number]() *MonoidOf[T] {
	var z T
	switch any(z).(type) {
	case float64:
		return any(Count).(*MonoidOf[T])
	case float32:
		return any(countF32).(*MonoidOf[T])
	case int32:
		return any(countI32).(*MonoidOf[T])
	case int64:
		return any(countI64).(*MonoidOf[T])
	}
	return nil
}
