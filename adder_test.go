package spkadd_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"spkadd"
	"spkadd/internal/generate"
)

func adderTestInputs(k, rows, cols, d int, seed uint64) []*spkadd.Matrix {
	return generate.ERCollection(k, generate.Opts{Rows: rows, Cols: cols, NNZPerCol: d, Seed: seed})
}

func identical(a, b *spkadd.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for j := 0; j <= a.Cols; j++ {
		if a.ColPtr[j] != b.ColPtr[j] {
			return false
		}
	}
	for p := range a.RowIdx {
		if a.RowIdx[p] != b.RowIdx[p] || a.Val[p] != b.Val[p] {
			return false
		}
	}
	return true
}

// TestAdderParity proves Adder.Add is bit-identical to the one-shot
// spkadd.Add across algorithms, engines and sortedness — on one Adder
// reused through the whole grid, so every configuration also runs on
// scratch left behind by the previous one.
func TestAdderParity(t *testing.T) {
	ad := spkadd.NewAdder()
	as := adderTestInputs(8, 4096, 48, 12, 3)
	small := adderTestInputs(3, 256, 8, 4, 4)
	algs := []spkadd.Algorithm{
		spkadd.Hash, spkadd.SPA, spkadd.Heap, spkadd.SlidingHash,
		spkadd.TwoWayIncremental, spkadd.TwoWayTree,
	}
	for _, alg := range algs {
		for _, p := range []spkadd.Phases{spkadd.PhasesAuto, spkadd.PhasesTwoPass, spkadd.PhasesUpperBound} {
			for _, sorted := range []bool{true, false} {
				for _, in := range [][]*spkadd.Matrix{as, small} {
					opt := spkadd.Options{Algorithm: alg, Phases: p, SortedOutput: sorted}
					got, err := ad.Add(in, opt)
					if err != nil {
						t.Fatalf("%v/%v/sorted=%v: %v", alg, p, sorted, err)
					}
					want, err := spkadd.Add(in, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !sorted {
						got, want = got.Clone().SortColumns(), want.Clone().SortColumns()
					}
					if !identical(got, want) {
						t.Fatalf("%v/%v/sorted=%v: Adder result differs from Add", alg, p, sorted)
					}
				}
			}
		}
	}
	// AddScaled parity on the same Adder.
	coeffs := make([]spkadd.Value, len(as))
	for i := range coeffs {
		coeffs[i] = 1.0 / spkadd.Value(len(as))
	}
	got, err := ad.AddScaled(as, coeffs, spkadd.Options{Algorithm: spkadd.Hash, SortedOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := spkadd.AddScaled(as, coeffs, spkadd.Options{Algorithm: spkadd.Hash, SortedOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if !identical(got, want) {
		t.Fatal("AddScaled: Adder result differs from package AddScaled")
	}
}

// TestAdderStreaming exercises the documented self-input pattern
// sum = ad.Add([sum, delta]) against an independently maintained
// reference.
func TestAdderStreaming(t *testing.T) {
	ad := spkadd.NewAdder()
	opt := spkadd.Options{Algorithm: spkadd.Hash, SortedOutput: true}
	var sum, ref *spkadd.Matrix
	for step := 0; step < 10; step++ {
		delta := spkadd.RandomER(1024, 32, 4, uint64(step+1))
		if sum == nil {
			var err error
			sum, err = ad.Add([]*spkadd.Matrix{delta}, opt)
			if err != nil {
				t.Fatal(err)
			}
			ref = delta.Clone().SortColumns()
			continue
		}
		var err error
		sum, err = ad.Add([]*spkadd.Matrix{sum, delta}, opt)
		if err != nil {
			t.Fatal(err)
		}
		ref, err = spkadd.Add([]*spkadd.Matrix{ref, delta}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !identical(sum, ref) {
			t.Fatalf("step %d: streaming sum diverged from reference", step)
		}
	}
}

// TestAdderZeroSteadyStateAllocs is the tentpole's acceptance
// criterion: once warmed, an Adder allocates nothing — for Hash, SPA
// and Heap under both Phases engines, sorted and unsorted.
// Threads is pinned to 1 because spawning worker goroutines allocates
// their closures; the multi-threaded path reuses all the same scratch.
func TestAdderZeroSteadyStateAllocs(t *testing.T) {
	as := adderTestInputs(8, 2048, 48, 8, 9)
	for _, alg := range []spkadd.Algorithm{spkadd.Hash, spkadd.SPA, spkadd.Heap} {
		for _, p := range []spkadd.Phases{spkadd.PhasesTwoPass, spkadd.PhasesUpperBound} {
			for _, sorted := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/%v/sorted=%v", alg, p, sorted), func(t *testing.T) {
					ad := spkadd.NewAdder()
					opt := spkadd.Options{Algorithm: alg, Phases: p, SortedOutput: sorted, Threads: 1}
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
	}
}

// TestAdderZeroSteadyStateAllocsMonoid extends the zero-allocation
// contract to the generic combine path: a warmed non-Plus Adder — the
// monoid resolution, the AddWith kernels, the input maps — must also
// allocate nothing in steady state, for every engine.
func TestAdderZeroSteadyStateAllocsMonoid(t *testing.T) {
	as := adderTestInputs(8, 2048, 48, 8, 9)
	for _, m := range []*spkadd.Monoid{spkadd.Min, spkadd.Any, spkadd.Count} {
		for _, p := range []spkadd.Phases{spkadd.PhasesTwoPass, spkadd.PhasesUpperBound} {
			t.Run(fmt.Sprintf("%s/%v", m.Name, p), func(t *testing.T) {
				ad := spkadd.NewAdder()
				opt := spkadd.Options{Algorithm: spkadd.Hash, Phases: p, Monoid: m, SortedOutput: true, Threads: 1}
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
					t.Errorf("generic-path steady state allocates %.1f times per op, want 0", allocs)
				}
			})
		}
	}
}

// TestAdderZeroSteadyStateAllocsSchedules extends the zero-allocation
// contract to scheduling: a warmed Adder allocates nothing for EVERY
// Options.Schedule — including the racy Dynamic and WeightedStealing
// modes, whose column→worker assignment varies run to run — and at
// Threads > 1, where the resident executor parks its workers between
// calls. (The older alloc tests predate the executor and pin Threads
// to 1 because the spawn-per-phase scheduler allocated goroutines;
// that restriction is exactly what this PR removed.)
func TestAdderZeroSteadyStateAllocsSchedules(t *testing.T) {
	as := adderTestInputs(8, 2048, 48, 8, 9)
	schedules := []spkadd.Schedule{
		spkadd.ScheduleWeighted, spkadd.ScheduleStatic,
		spkadd.ScheduleDynamic, spkadd.ScheduleWeightedStealing,
	}
	for _, s := range schedules {
		for _, p := range []spkadd.Phases{spkadd.PhasesTwoPass, spkadd.PhasesUpperBound} {
			t.Run(fmt.Sprintf("%v/%v", s, p), func(t *testing.T) {
				ad := spkadd.NewAdder()
				opt := spkadd.Options{Algorithm: spkadd.Hash, Phases: p, Schedule: s, SortedOutput: true, Threads: 2}
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
}

// TestPooledAddConcurrent hammers the package-level Add — whose
// scratch comes from one shared sync.Pool of workspaces — from many
// goroutines. Run under -race (the CI race job does) this is the
// pooled-workspace race test; each goroutine also checks its own
// results so cross-contamination would surface as corruption.
func TestPooledAddConcurrent(t *testing.T) {
	as := adderTestInputs(6, 1024, 32, 8, 11)
	want, err := spkadd.Add(as, spkadd.Options{Algorithm: spkadd.Hash, SortedOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p := []spkadd.Phases{spkadd.PhasesTwoPass, spkadd.PhasesUpperBound}[(g+i)%2]
				got, err := spkadd.Add(as, spkadd.Options{Algorithm: spkadd.Hash, Phases: p, SortedOutput: true, Threads: 2})
				if err != nil {
					errs <- err
					return
				}
				if !identical(got, want) {
					errs <- fmt.Errorf("goroutine %d iter %d: corrupted result", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAdderConcurrentMisuse hammers a single Adder from many
// goroutines. Overlapping calls must fail with ErrAdderInUse — never
// corrupt state or return a wrong result. Results are not dereferenced
// (a successful caller's matrix may legitimately be recycled by the
// next successful call); the deterministic busy-flag check lives in
// the internal test.
func TestAdderConcurrentMisuse(t *testing.T) {
	ad := spkadd.NewAdder()
	as := adderTestInputs(4, 512, 16, 6, 13)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := ad.Add(as, spkadd.Options{Algorithm: spkadd.Hash, Threads: 1})
				switch {
				case err == nil:
					if got == nil {
						errs <- errors.New("nil matrix with nil error")
						return
					}
				case errors.Is(err, spkadd.ErrAdderInUse):
					// expected under contention
				default:
					errs <- fmt.Errorf("unexpected error: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The Adder must be fully usable afterwards.
	got, err := ad.Add(as, spkadd.Options{Algorithm: spkadd.Hash, SortedOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := spkadd.Add(as, spkadd.Options{Algorithm: spkadd.Hash, SortedOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if !identical(got, want) {
		t.Fatal("Adder corrupted by concurrent misuse")
	}
}

// TestAdderZeroValue checks the documented zero-value readiness.
func TestAdderZeroValue(t *testing.T) {
	var ad spkadd.Adder
	as := adderTestInputs(3, 128, 8, 4, 17)
	got, err := ad.Add(as, spkadd.Options{Algorithm: spkadd.SPA, SortedOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := spkadd.Add(as, spkadd.Options{Algorithm: spkadd.SPA, SortedOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if !identical(got, want) {
		t.Fatal("zero-value Adder result differs")
	}
}
