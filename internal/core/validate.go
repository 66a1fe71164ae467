package core

import (
	"errors"
	"fmt"

	"spkadd/internal/matrix"
	"spkadd/internal/ops"
)

// This file is the single option-validation and call-resolution point
// for every entry into the engines: package Add/AddTimed/AddScaled,
// Workspace (hence the public Adder), Accumulator reductions and Pool
// shard reductions all funnel through Options.validate, so the
// coefficient, monoid and sortedness checks — and the CacheBytes
// default applied via the Options accessor — cannot drift between
// entry points.

// ErrCoeffsRequirePlus is returned when AddScaled coefficients are
// combined with a non-Plus monoid: coeffs·A distributes over "+" but
// not over min, max, boolean union or counting, so a scaled Min (etc.)
// has no well-defined meaning.
var ErrCoeffsRequirePlus = errors.New("spkadd: coefficients require the Plus monoid")

// ErrMonoidUnsupported is returned when a monoid cannot run on the
// requested configuration: a non-Plus monoid on a 2-way baseline
// (their pairwise drivers hardwire "+"), a DropIdentity monoid on
// SlidingHash (its two-pass driver's symbolic phase sizes the output
// before values exist), a monoid without a Combine function, or a nil
// Monoid on an element type with no default Plus (bool).
var ErrMonoidUnsupported = errors.New("spkadd: monoid unsupported for this configuration")

// monoidStateOf is the per-call resolution of Options.Monoid for the
// generic combine path. It is held by value inside the plan and
// Workspace — never heap-allocated per call — so a warmed non-Plus
// Adder keeps the zero-allocation steady state. A nil *monoidStateOf
// at a kernel boundary means the Plus fast path: the kernels branch on
// it once per column, and the specialized inlined "+=" loops run
// exactly as before this layer existed.
type monoidStateOf[T matrix.Number] struct {
	def     *ops.MonoidOf[T]
	combine func(a, b T) T
	mapIn   func(v T) T
	// mapped counts leading inputs that are already in the monoid's
	// result domain — the running sum an Accumulator or Pool shard
	// folds back into each reduction — and therefore skip MapInput
	// (re-mapping a Count sum would collapse every count back to 1).
	mapped int
	drop   bool // DropIdentity: filter identity-valued output entries
}

// mapFor returns the input map for matrix i, or nil when the
// matrix's values pass through unchanged — the premapped running-sum
// prefix, and every matrix of a monoid without MapInput. Kernels
// resolve it once per matrix and branch on nil outside their element
// loops, so no-map monoids (Min, Max, user Combine-only) pay no
// per-element indirect call for a mapping they don't have.
func (m *monoidStateOf[T]) mapFor(i int) func(T) T {
	if i < m.mapped {
		return nil
	}
	return m.mapIn
}

// planOf is a fully validated and resolved addition call: the concrete
// algorithm (which fixes the engine it runs on), input sortedness,
// and the combine monoid. Producing the whole plan in one place keeps
// every entry point's behaviour identical.
type planOf[T matrix.Number] struct {
	alg Algorithm
	// sortedIn reports that every input column is sorted. It is
	// computed only for the algorithms that read it (see validate) and
	// stays false for the rest, whatever their inputs.
	sortedIn bool
	// copyOne marks the single-input shortcut: the sum of one matrix
	// under Plus is a plain copy, taken before algorithm-specific
	// checks exactly as the pre-plan code did. Non-Plus monoids skip
	// it — MapInput and within-column duplicate combining must still
	// apply — and run the engines with k=1.
	copyOne bool
	// generic selects the generic combine path; when false the
	// kernels run their specialized inlined T-Plus loops and mon is
	// meaningless.
	generic bool
	mon     monoidStateOf[T]
}

// validate checks one addition call — inputs, coefficients, options —
// and resolves it to a plan. coeffs is nil for unscaled additions.
// premapped counts leading inputs already in the monoid's result
// domain (see monoidStateOf.mapped); plain calls pass 0.
func (o OptionsOf[T]) validate(as []*matrix.CSCOf[T], coeffs []T, premapped int) (planOf[T], error) {
	var p planOf[T]
	if coeffs != nil && len(coeffs) != len(as) {
		return p, fmt.Errorf("%w: %d coefficients for %d matrices", ErrDimMismatch, len(coeffs), len(as))
	}
	if err := validateDims(as); err != nil {
		return p, err
	}
	m, err := o.check()
	if err != nil {
		return p, err
	}
	if m != nil {
		if coeffs != nil {
			return p, fmt.Errorf("%w: got %s", ErrCoeffsRequirePlus, m.Name)
		}
		p.generic = true
		p.mon = monoidStateOf[T]{
			def:     m,
			combine: m.Combine,
			mapIn:   m.MapInput, // nil when values pass through unmapped
			mapped:  premapped,
			drop:    m.DropIdentity,
		}
	}

	// Single-input shortcut, before algorithm checks (matching the
	// historical behaviour: Add([a], Options{Algorithm: Heap}) copies
	// a even when a is unsorted).
	if len(as) == 1 && coeffs == nil && !p.generic {
		p.copyOne = true
		return p, nil
	}

	alg := o.Algorithm
	if alg == Auto {
		alg = autoSelect(as, o)
		if alg == SlidingHash && p.mon.drop {
			// DropIdentity needs the single-pass engine, which
			// SlidingHash lacks: an unpinned call falls back to Hash.
			alg = Hash
		}
	}
	p.alg = alg
	// The O(nnz) sortedness scan runs only where its answer is used:
	// the merge-based algorithms reject unsorted input, and SlidingHash
	// passes it to its kernels, which then bound each row window by
	// binary search. Hash, SPA and the map baselines accept any order.
	switch {
	case alg.needsSortedInput():
		if !allColumnsSorted(as) {
			return p, unsortedErr(alg)
		}
		p.sortedIn = true
	case alg == SlidingHash:
		p.sortedIn = allColumnsSorted(as)
	}
	if coeffs != nil && !alg.kWay() {
		return p, fmt.Errorf("spkadd: AddScaled supports k-way algorithms only, got %v", alg)
	}
	return p, nil
}

// check runs the checks that read the options alone, so it fails
// whatever matrices a call passes: an unknown Algorithm, a nil Monoid
// on an element type with no Plus (bool), a monoid without Combine, a
// non-Plus monoid on a 2-way baseline, and a DropIdentity monoid on an
// explicit SlidingHash. It returns the monoid to fold with, or nil for
// T's Plus, the fast path. validate calls it, and admit calls it at
// every Accumulator and Pool push, so options no reduction can run are
// refused before anything is queued.
func (o OptionsOf[T]) check() (*ops.MonoidOf[T], error) {
	// An unknown algorithm has no driver behind it: it would fall
	// through every kernel switch and return an empty sum.
	if _, ok := algoNames[o.Algorithm]; !ok {
		return nil, fmt.Errorf("spkadd: unknown Algorithm %d", int(o.Algorithm))
	}
	plus, m := ops.PlusFor[T](), o.Monoid
	if m == nil {
		// T's canonical Plus — nil for bool, which has no "+": boolean
		// matrices must name their combine (Any is the usual union).
		if plus == nil {
			return nil, fmt.Errorf("%w: element type has no default Plus monoid; set Options.Monoid (e.g. ops.AnyFor)", ErrMonoidUnsupported)
		}
		return nil, nil
	}
	if m == plus {
		return nil, nil
	}
	if !m.Valid() {
		return nil, fmt.Errorf("%w: monoid %q has no Combine", ErrMonoidUnsupported, m.String())
	}
	// Auto resolves to a k-way algorithm, and a DropIdentity call to
	// Hash rather than SlidingHash (validate).
	if alg := o.Algorithm; alg != Auto && !alg.kWay() {
		return nil, fmt.Errorf("%w: %v supports Plus only (its pairwise driver hardwires \"+\"), got %s",
			ErrMonoidUnsupported, alg, m.Name)
	}
	// DropIdentity needs the single-pass engine, because only it sees
	// values before the output is sized. SlidingHash is the one k-way
	// algorithm on the two-pass driver.
	if m.DropIdentity && o.Algorithm == SlidingHash {
		return nil, fmt.Errorf("%w: DropIdentity monoid %s needs the single-pass engine, but %v runs two-pass (its symbolic phase sizes the output before values exist)",
			ErrMonoidUnsupported, m.Name, o.Algorithm)
	}
	return m, nil
}

// kWay reports whether alg is one of the paper's k-way algorithms,
// which run every monoid and coefficients.
func (alg Algorithm) kWay() bool {
	return alg == Heap || alg == SPA || alg == Hash || alg == SlidingHash
}

// needsSortedInput reports whether alg merges columns in row order and
// so rejects inputs with unsorted columns.
func (alg Algorithm) needsSortedInput() bool {
	return alg == TwoWayIncremental || alg == TwoWayTree || alg == Heap
}

// admit is the push-time check of the Accumulator and the Pool: a
// matrix that every reduction under opt would reject is refused before
// it is queued, where it would fail each batch it joined, and so are
// options that fail every reduction (check). The O(nnz) sortedness
// scan runs only for the algorithms that need sorted input.
func admit[T matrix.Number](a *matrix.CSCOf[T], opt OptionsOf[T]) error {
	if _, err := opt.check(); err != nil {
		return err
	}
	if opt.Algorithm.needsSortedInput() && !a.IsColumnSorted() {
		return unsortedErr(opt.Algorithm)
	}
	return nil
}
