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

// engineCells are the engine labels of the allocation and parity
// grids, whose subtest IDs name an algorithm and an engine. Hash, SPA
// and Heap have only the single pass, so a TwoPass cell runs
// SlidingHash, the one k-way algorithm on the two-pass driver
// (engineCell), and the case IDs stay stable.
var engineCells = []spkadd.Phases{spkadd.PhasesTwoPass, spkadd.PhasesUpperBound}

// engineCell is the configuration grid cell alg/engine runs over T:
// alg on its single pass, or for TwoPass the algorithm left on the
// two-pass driver — SlidingHash, unpartitioned under the Hash label
// (the paper's two-phase hash) and partitioned by an entry cap under
// SPA (16 entries) and Heap (4).
func engineCell[T spkadd.Number](alg spkadd.Algorithm, engine spkadd.Phases) spkadd.OptionsOf[T] {
	if engine != spkadd.PhasesTwoPass {
		return spkadd.OptionsOf[T]{Algorithm: alg}
	}
	switch alg {
	case spkadd.SPA:
		return spkadd.OptionsOf[T]{Algorithm: spkadd.SlidingHash, MaxTableEntries: 16}
	case spkadd.Heap:
		return spkadd.OptionsOf[T]{Algorithm: spkadd.SlidingHash, MaxTableEntries: 4}
	}
	return spkadd.OptionsOf[T]{Algorithm: spkadd.SlidingHash}
}

// TestAdderParity proves Adder.Add is bit-identical to the one-shot
// spkadd.Add across algorithms (so both engines), SlidingHash's
// partitioning and sortedness — on one Adder reused through the whole
// grid, so every configuration also runs on scratch left behind by
// the previous one.
func TestAdderParity(t *testing.T) {
	ad := spkadd.NewAdder()
	as := adderTestInputs(8, 4096, 48, 12, 3)
	small := adderTestInputs(3, 256, 8, 4, 4)
	for _, base := range []spkadd.Options{
		{Algorithm: spkadd.Auto}, {Algorithm: spkadd.Hash}, {Algorithm: spkadd.SPA}, {Algorithm: spkadd.Heap},
		{Algorithm: spkadd.SlidingHash}, {Algorithm: spkadd.SlidingHash, MaxTableEntries: 8},
		{Algorithm: spkadd.TwoWayIncremental}, {Algorithm: spkadd.TwoWayTree},
	} {
		for _, sorted := range []bool{true, false} {
			for _, in := range [][]*spkadd.Matrix{as, small} {
				opt := base
				opt.SortedOutput = sorted
				name := fmt.Sprintf("%v/max=%d/sorted=%v", opt.Algorithm, opt.MaxTableEntries, sorted)
				got, err := ad.Add(in, opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := spkadd.Add(in, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !sorted {
					got, want = got.Clone().SortColumns(), want.Clone().SortColumns()
				}
				if !identical(got, want) {
					t.Fatalf("%s: Adder result differs from Add", name)
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

// TestAdderZeroSteadyStateAllocs is the reuse layer's acceptance
// criterion: once warmed, an Adder allocates nothing — for every
// engine cell (Hash, SPA and Heap single-pass, SlidingHash
// unpartitioned and partitioned), sorted and unsorted.
// Threads is pinned to 1 so the steady state runs every region
// inline; TestAdderZeroSteadyStateAllocsSchedules covers the
// resident executor.
func TestAdderZeroSteadyStateAllocs(t *testing.T) {
	as := adderTestInputs(8, 2048, 48, 8, 9)
	for _, alg := range []spkadd.Algorithm{spkadd.Hash, spkadd.SPA, spkadd.Heap} {
		for _, p := range engineCells {
			for _, sorted := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/%v/sorted=%v", alg, p, sorted), func(t *testing.T) {
					ad := spkadd.NewAdder()
					opt := engineCell[spkadd.Value](alg, p)
					opt.SortedOutput, opt.Threads = sorted, 1
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
// allocate nothing in steady state, on both engines (Hash single-pass,
// SlidingHash two-pass).
func TestAdderZeroSteadyStateAllocsMonoid(t *testing.T) {
	as := adderTestInputs(8, 2048, 48, 8, 9)
	for _, m := range []*spkadd.Monoid{spkadd.Min, spkadd.Any, spkadd.Count} {
		for _, p := range engineCells {
			t.Run(fmt.Sprintf("%s/%v", m.Name, p), func(t *testing.T) {
				ad := spkadd.NewAdder()
				opt := engineCell[spkadd.Value](spkadd.Hash, p)
				opt.Monoid, opt.SortedOutput, opt.Threads = m, true, 1
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
// contract to scheduling: a warmed Adder allocates nothing for every
// engine cell at Threads > 1, although stealing hands columns to
// workers differently from run to run and the resident executor parks
// its workers between calls. The cells are uniform (ER) or skewed
// (RMAT) column weights at 2 or 4 workers; each keeps, as its subtest
// name, one of the four column schedules the one weighted,
// work-stealing schedule replaced, so the cases keep their IDs. The
// Band cells run the wide bandInputs (bench_test.go), whose long
// columns sort by bitmap.
func TestAdderZeroSteadyStateAllocsSchedules(t *testing.T) {
	o := generate.Opts{Rows: 2048, Cols: 48, NNZPerCol: 8, Seed: 9}
	inputs := map[string][]*spkadd.Matrix{
		"ER":   generate.ERCollection(8, o),
		"RMAT": generate.RMATCollection(8, o, generate.Graph500),
		"Band": bandInputs(),
	}
	regimes := []struct {
		name    string
		pattern string
		threads int
	}{
		{"Static", "ER", 2},
		{"Weighted", "RMAT", 2},
		{"Dynamic", "ER", 4},
		{"WeightedStealing", "RMAT", 4},
		{"Band", "Band", 2},
	}
	for _, rg := range regimes {
		for _, p := range engineCells {
			t.Run(fmt.Sprintf("%s/%v", rg.name, p), func(t *testing.T) {
				as := inputs[rg.pattern]
				for _, alg := range []spkadd.Algorithm{spkadd.Hash, spkadd.SPA, spkadd.Heap} {
					ad := spkadd.NewAdder()
					opt := engineCell[spkadd.Value](alg, p)
					opt.SortedOutput, opt.Threads = true, rg.threads
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
						t.Errorf("%v (max=%d) at Threads %d: steady state allocates %.1f times per op, want 0",
							opt.Algorithm, opt.MaxTableEntries, rg.threads, allocs)
					}
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
				// Alternate the engines: sorted SlidingHash is
				// bit-identical to sorted Hash.
				alg := []spkadd.Algorithm{spkadd.SlidingHash, spkadd.Hash}[(g+i)%2]
				got, err := spkadd.Add(as, spkadd.Options{Algorithm: alg, SortedOutput: true, Threads: 2})
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
