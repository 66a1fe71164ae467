package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"spkadd/internal/generate"
	"spkadd/internal/matrix"
)

func randomCSC(rng *rand.Rand, rows, cols, nnz int) *matrix.CSC {
	coo := matrix.NewCOO(rows, cols)
	for i := 0; i < nnz; i++ {
		coo.Append(matrix.Index(rng.Intn(rows)), matrix.Index(rng.Intn(cols)), float64(rng.Intn(5)+1))
	}
	return coo.ToCSC()
}

func TestMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomCSC(rng, 30, 20, 100)
	b := randomCSC(rng, 20, 25, 90)
	want := matrix.ReferenceMul(a, b)
	for _, sorted := range []bool{true, false} {
		got, err := Mul(a, b, MulOptions{SortOutput: sorted, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		if !got.EqualTol(want, 1e-9) {
			t.Errorf("sorted=%v: product differs from dense reference", sorted)
		}
		if sorted && !got.IsColumnSorted() {
			t.Error("SortOutput violated")
		}
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a := matrix.NewCSC(3, 4, 0)
	b := matrix.NewCSC(5, 2, 0)
	if _, err := Mul(a, b, MulOptions{}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("3x4 * 5x2: got %v, want ErrDimMismatch", err)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomCSC(rng, 15, 15, 60)
	var ts []matrix.Triple
	for i := 0; i < 15; i++ {
		ts = append(ts, matrix.Triple{Row: matrix.Index(i), Col: matrix.Index(i), Val: 1})
	}
	id := matrix.FromTriples(15, 15, ts)
	got, err := Mul(a, id, MulOptions{SortOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(a) {
		t.Error("A*I != A")
	}
	got2, err := Mul(id, a, MulOptions{SortOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(a) {
		t.Error("I*A != A")
	}
}

func TestMulEmptyOperands(t *testing.T) {
	a := matrix.NewCSC(4, 3, 0)
	b := matrix.NewCSC(3, 5, 0)
	got, err := Mul(a, b, MulOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 4 || got.Cols != 5 || got.NNZ() != 0 {
		t.Errorf("empty product = %v", got)
	}
}

func TestMulRMAT(t *testing.T) {
	a := generate.RMAT(generate.Opts{Rows: 200, Cols: 150, NNZPerCol: 6, Seed: 3}, generate.Graph500)
	b := generate.RMAT(generate.Opts{Rows: 150, Cols: 100, NNZPerCol: 5, Seed: 4}, generate.Graph500)
	want := matrix.ReferenceMul(a, b)
	got, err := Mul(a, b, MulOptions{SortOutput: true, Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualTol(want, 1e-9) {
		t.Error("RMAT product differs from dense reference")
	}
}

func TestQuickMulAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := rng.Intn(20)+1, rng.Intn(20)+1, rng.Intn(20)+1
		a := randomCSC(rng, m, k, rng.Intn(60))
		b := randomCSC(rng, k, n, rng.Intn(60))
		got, err := Mul(a, b, MulOptions{SortOutput: rng.Intn(2) == 0, Threads: rng.Intn(3) + 1})
		if err != nil {
			return false
		}
		return got.EqualTol(matrix.ReferenceMul(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMulUnsortedDeterministic pins the unsorted product array for
// array: first-insertion order depends on neither the thread count
// nor the entry point (pooled one-shot, fresh-output or recycling
// workspace).
func TestMulUnsortedDeterministic(t *testing.T) {
	a := generate.ProteinLike(600, 32, 12, 5)
	b := generate.ProteinLike(600, 32, 12, 6)
	want, err := Mul(a, b, MulOptions{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want.IsColumnSorted() {
		t.Fatal("unsorted product came out sorted; the test would not see an order change")
	}
	fresh, recycled := NewWorkspace(false), NewWorkspace(true)
	for _, threads := range []int{1, 2, 4} {
		opt := MulOptions{Threads: threads}
		for name, mul := range map[string]func(a, b *matrix.CSC, opt MulOptions) (*matrix.CSC, error){
			"one-shot": Mul[matrix.Value], "workspace": fresh.Mul, "recycling": recycled.Mul,
		} {
			for rep := 0; rep < 2; rep++ {
				got, err := mul(a, b, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !bitIdentical(got, want) {
					t.Errorf("%s at Threads %d (call %d): product differs from Threads 1 one-shot", name, threads, rep)
				}
			}
		}
	}
}

// TestMulWorkspaceAllocs: a warmed recycling workspace multiplies
// without allocating, and a fresh-output one allocates only its
// product (the CSC header and its three arrays).
func TestMulWorkspaceAllocs(t *testing.T) {
	a := generate.ProteinLike(800, 64, 16, 7)
	b := generate.ProteinLike(800, 64, 16, 8)
	for _, threads := range []int{1, 2} {
		for _, sorted := range []bool{false, true} {
			for _, c := range []struct {
				recycle bool
				want    float64
			}{{true, 0}, {false, 4}} {
				t.Run(fmt.Sprintf("threads=%d/sorted=%v/recycle=%v", threads, sorted, c.recycle), func(t *testing.T) {
					ws := NewWorkspace(c.recycle)
					opt := MulOptions{Threads: threads, SortOutput: sorted}
					for warm := 0; warm < 3; warm++ {
						if _, err := ws.Mul(a, b, opt); err != nil {
							t.Fatal(err)
						}
					}
					allocs := testing.AllocsPerRun(10, func() {
						if _, err := ws.Mul(a, b, opt); err != nil {
							t.Fatal(err)
						}
					})
					if allocs != c.want {
						t.Errorf("steady-state Mul allocates %.1f times per op, want %v", allocs, c.want)
					}
				})
			}
		}
	}
}
