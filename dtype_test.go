// Per-instantiation coverage of the generic value axis: every element
// type runs the full algorithm × engine grid against the dense
// reference, and a warmed generic Adder must hold the zero-allocation
// steady state exactly like the float64 one.
package spkadd_test

import (
	"fmt"
	"testing"

	"spkadd"
	"spkadd/internal/matrix"
)

// dtypeParityGrid checks one instantiation against the dense
// reference across the k-way algorithms and engines. Comparison is
// exact (tolerance zero): kernels and reference both combine
// duplicates in matrix order, so even float32 sums must agree
// bit-for-bit within an instantiation.
func dtypeParityGrid[T spkadd.Number](t *testing.T, as []*spkadd.MatrixOf[T], mon *spkadd.MonoidOf[T]) {
	t.Helper()
	// The reference dense accumulator combines with AddVal (OR for
	// bool), which matches Any on bool inputs and Plus on the rest.
	want := matrix.ReferenceAdd(as)
	for _, alg := range []spkadd.Algorithm{spkadd.Hash, spkadd.SPA, spkadd.Heap} {
		for _, p := range []spkadd.Phases{spkadd.PhasesTwoPass, spkadd.PhasesUpperBound} {
			t.Run(fmt.Sprintf("%v/%v", alg, p), func(t *testing.T) {
				opt := spkadd.OptionsOf[T]{Algorithm: alg, Phases: p, Monoid: mon, SortedOutput: true, Threads: 1}
				got, err := spkadd.Add(as, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Errorf("%v/%v disagrees with the dense reference", alg, p)
				}
			})
		}
	}
}

// TestDtypeParity: the paper's engines produce reference-identical
// sums for every supported element type. Inputs are small and short
// (rows ≪ k·d) so duplicate merging is exercised hard, and they are
// the float64 test inputs converted value-by-value, so each
// instantiation sums the same structure.
func TestDtypeParity(t *testing.T) {
	as := adderTestInputs(6, 512, 32, 8, 11)
	t.Run("float32", func(t *testing.T) {
		dtypeParityGrid(t, convertInputs(as, func(v float64) float32 { return float32(v) }), nil)
	})
	t.Run("int32", func(t *testing.T) {
		dtypeParityGrid(t, convertInputs(as, func(v float64) int32 { return int32(v*64) - 32 }), nil)
	})
	t.Run("int64", func(t *testing.T) {
		dtypeParityGrid(t, convertInputs(as, func(v float64) int64 { return int64(v*1e6) - 5e5 }), nil)
	})
	t.Run("bool", func(t *testing.T) {
		dtypeParityGrid(t, convertInputs(as, func(v float64) bool { return true }), spkadd.AnyFor[bool]())
	})
}

// TestBoolRequiresMonoid: bool has no "+", so an addition without an
// explicit monoid must fail validation instead of instantiating a
// meaningless fast path.
func TestBoolRequiresMonoid(t *testing.T) {
	as := convertInputs(adderTestInputs(2, 64, 8, 4, 3), func(v float64) bool { return true })
	if _, err := spkadd.Add(as, spkadd.OptionsOf[bool]{}); err == nil {
		t.Fatal("bool addition without a monoid succeeded, want a validation error")
	}
}

// dtypeAllocGrid asserts the warmed zero-allocation steady state for
// one instantiation across the engines.
func dtypeAllocGrid[T spkadd.Number](t *testing.T, as []*spkadd.MatrixOf[T], mon *spkadd.MonoidOf[T]) {
	t.Helper()
	for _, p := range []spkadd.Phases{spkadd.PhasesTwoPass, spkadd.PhasesUpperBound} {
		t.Run(fmt.Sprintf("%v", p), func(t *testing.T) {
			ad := spkadd.NewAdderOf[T]()
			opt := spkadd.OptionsOf[T]{Algorithm: spkadd.Hash, Phases: p, Monoid: mon, SortedOutput: true, Threads: 1}
			for warm := 0; warm < 3; warm++ {
				if _, err := ad.Add(as, opt); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := ad.Add(as, opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady state allocates %.1f times per op, want 0", allocs)
			}
		})
	}
}

// TestAdderZeroSteadyStateAllocsDtype extends the zero-allocation
// contract to every instantiation of the generic value axis — the
// type-parameterized kernels must not reintroduce boxing or escapes on
// any element type's steady-state path.
func TestAdderZeroSteadyStateAllocsDtype(t *testing.T) {
	as := adderTestInputs(8, 2048, 48, 8, 9)
	t.Run("float32", func(t *testing.T) {
		dtypeAllocGrid(t, convertInputs(as, func(v float64) float32 { return float32(v) }), nil)
	})
	t.Run("int32", func(t *testing.T) {
		dtypeAllocGrid(t, convertInputs(as, func(v float64) int32 { return int32(v * 64) }), nil)
	})
	t.Run("int64", func(t *testing.T) {
		dtypeAllocGrid(t, convertInputs(as, func(v float64) int64 { return int64(v * 1e6) }), nil)
	})
	t.Run("bool", func(t *testing.T) {
		dtypeAllocGrid(t, convertInputs(as, func(v float64) bool { return true }), spkadd.AnyFor[bool]())
	})
}
