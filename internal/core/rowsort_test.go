package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"spkadd/internal/matrix"
)

// rowSortCase is one column handed to the row sorter: n distinct rows
// spanning exactly span rows from lo, in the given order.
type rowSortCase struct {
	name  string
	n     int
	lo    matrix.Index
	span  int64
	order string // "shuffled", "sorted" or "reversed"
	// want is the method the sorter picks; force, when set, runs
	// that method instead, for shapes the pick never hands it.
	want, force rowSortMethod
	forced      bool
}

// rowSortColumn draws the case's rows (the span's two ends included)
// and a value per row from val, seeded for repeatability.
func rowSortColumn[T matrix.Number](c rowSortCase, seed int64, val func(matrix.Index) T) ([]matrix.Index, []T) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]matrix.Index, 0, c.n)
	seen := make(map[matrix.Index]bool, c.n)
	add := func(r matrix.Index) {
		if !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	add(c.lo)
	if c.n > 1 {
		add(c.lo + matrix.Index(c.span-1))
	}
	for len(rows) < c.n {
		add(c.lo + matrix.Index(rng.Int63n(c.span)))
	}
	switch c.order {
	case "sorted":
		slices.Sort(rows)
	case "reversed":
		slices.Sort(rows)
		slices.Reverse(rows)
	default:
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	}
	vals := make([]T, len(rows))
	for i, r := range rows {
		vals[i] = val(r)
	}
	return rows, vals
}

// referenceSort is the comparison sort the sorter must agree with.
func referenceSort[T matrix.Number](rows []matrix.Index, vals []T) ([]matrix.Index, []T) {
	type pair struct {
		r matrix.Index
		v T
	}
	ps := make([]pair, len(rows))
	for i := range rows {
		ps[i] = pair{rows[i], vals[i]}
	}
	slices.SortFunc(ps, func(a, b pair) int { return cmp.Compare(a.r, b.r) })
	wr, wv := make([]matrix.Index, len(ps)), make([]T, len(ps))
	for i, p := range ps {
		wr[i], wv[i] = p.r, p.v
	}
	return wr, wv
}

// rowSortDtypes runs f once per element type, each with a value
// function that ties a value to its row.
func rowSortDtypes(t *testing.T, f func(t *testing.T, check func(c rowSortCase, seed int64) error)) {
	t.Run("float64", func(t *testing.T) {
		f(t, checkerFor(func(r matrix.Index) float64 { return float64(r) + 0.25 }))
	})
	t.Run("float32", func(t *testing.T) {
		f(t, checkerFor(func(r matrix.Index) float32 { return float32(r%4096) + 0.5 }))
	})
	t.Run("int32", func(t *testing.T) {
		f(t, checkerFor(func(r matrix.Index) int32 { return int32(r) ^ 0x5555 }))
	})
	t.Run("int64", func(t *testing.T) {
		f(t, checkerFor(func(r matrix.Index) int64 { return -3 * int64(r) }))
	})
	t.Run("bool", func(t *testing.T) {
		f(t, checkerFor(func(r matrix.Index) bool { return r%3 == 1 }))
	})
}

// checkerFor returns a check that sorts the case's column on a fresh
// sorter, by the sorter's own pick or by c.force, and compares it
// with referenceSort. It also checks the pick, and that the picked
// method is the one that ran: only the bitmap grows its scratch.
func checkerFor[T matrix.Number](val func(matrix.Index) T) func(c rowSortCase, seed int64) error {
	return func(c rowSortCase, seed int64) error {
		rows, vals := rowSortColumn(c, seed, val)
		wr, wv := referenceSort(rows, vals)
		var s rowSorterOf[T]
		if c.forced {
			s.sortBy(c.force, rows, vals, slices.Min(rows), slices.Max(rows))
		} else {
			method := pickRowSort(len(rows), uint64(c.span))
			if method != c.want {
				return fmt.Errorf("picked method %d, want %d", method, c.want)
			}
			if c.n < 2 {
				method = sortQuick // nothing to sort: no method runs
			}
			s.sort(rows, vals)
			ran := sortQuick
			if len(s.seen) > 0 {
				ran = sortBitmap
			}
			if ran != method {
				return fmt.Errorf("method %d ran, picked %d", ran, method)
			}
		}
		if !slices.Equal(rows, wr) || !slices.Equal(vals, wv) {
			return fmt.Errorf("column differs from the reference sort")
		}
		return nil
	}
}

// TestRowSortMethods walks the sorter's boundaries: the bitmap rule
// at span = c·n ± 1 for a short and a long column, spans at the
// bitmap's word boundaries, minimum rows 0 and near math.MaxInt32, and
// a single-entry, an already-sorted and a reversed column, for every
// element type.
func TestRowSortMethods(t *testing.T) {
	const c = bitmapSpanPerEntry
	top := matrix.Index(math.MaxInt32)
	cases := []rowSortCase{
		{name: "single", n: 1, lo: 7, span: 1, want: sortBitmap},
		{name: "two", n: 2, lo: 0, span: 1 << 20, want: sortQuick},
		{name: "sorted/quick", n: 500, lo: 0, span: 1 << 24, order: "sorted", want: sortQuick},
		{name: "sorted/bitmap", n: 500, lo: 3, span: 1000, order: "sorted", want: sortBitmap},
		{name: "reversed/quick", n: 500, lo: 0, span: 1 << 24, order: "reversed", want: sortQuick},
		{name: "reversed/bitmap", n: 500, lo: 3, span: 1000, order: "reversed", want: sortBitmap},

		{name: "bitmap/span=cn-1", n: 100, lo: 0, span: c*100 - 1, want: sortBitmap},
		{name: "bitmap/span=cn", n: 100, lo: 0, span: c * 100, want: sortBitmap},
		{name: "quick/span=cn+1", n: 100, lo: 0, span: c*100 + 1, want: sortQuick},
		{name: "bitmap/span=cn/long", n: 3000, lo: 5, span: c * 3000, want: sortBitmap},
		{name: "quick/span=cn+1/long", n: 3000, lo: 5, span: c*3000 + 1, want: sortQuick},

		{name: "bitmap/span=64", n: 40, lo: 0, span: 64, want: sortBitmap},
		{name: "bitmap/span=65", n: 40, lo: 0, span: 65, want: sortBitmap},
		{name: "bitmap/dense", n: 1000, lo: 64, span: 1000, want: sortBitmap},

		{name: "bitmap/lo=top", n: 200, lo: top - 9999, span: 10000, want: sortBitmap},
		{name: "quick/lo=top", n: 200, lo: top - (1 << 20) + 1, span: 1 << 20, want: sortQuick},
		{name: "quick/forced", n: 2000, lo: 11, span: 4000, force: sortQuick, forced: true},
		{name: "bitmap/forced", n: 64, lo: 0, span: 1 << 16, force: sortBitmap, forced: true},
	}
	rowSortDtypes(t, func(t *testing.T, check func(rowSortCase, int64) error) {
		for i, tc := range cases {
			if err := check(tc, int64(i)); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		}
	})
}

// TestRowSortQuick is the property test: random columns of up to 3000
// distinct rows over spans up to 2^31, sorted by the sorter's pick and
// by each method forced, match the reference sort for every element
// type.
func TestRowSortQuick(t *testing.T) {
	rowSortDtypes(t, func(t *testing.T, check func(rowSortCase, int64) error) {
		f := func(seed int64, nRaw uint16, spanBits, loRaw uint32) bool {
			n := 1 + int(nRaw)%3000
			bits := 1 + int(spanBits%31)
			span := max(int64(n), 1+rand.New(rand.NewSource(seed)).Int63n(int64(1)<<bits))
			lo := matrix.Index(int64(loRaw) % (math.MaxInt32 - span + 2))
			c := rowSortCase{n: n, lo: lo, span: span, want: pickRowSort(n, uint64(span))}
			if err := check(c, seed); err != nil {
				t.Logf("n=%d lo=%d span=%d: %v", n, lo, span, err)
				return false
			}
			for _, m := range []rowSortMethod{sortQuick, sortBitmap} {
				if m == sortBitmap && span > 1<<24 {
					continue // keep the bitmap small
				}
				fc := c
				fc.force, fc.forced = m, true
				if err := check(fc, seed); err != nil {
					t.Logf("n=%d lo=%d span=%d forced %d: %v", n, lo, span, m, err)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Error(err)
		}
	})
}

// TestReserveWorkersSorter: reserveWorkers reserves every worker's
// row sorter for a sorted call, so a column of up to the call's
// largest bound sorts on any worker without allocating, by the method
// its shape picks. Stealing decides at run time which worker sorts
// which column, so the allocation gate sees a missing reservation only
// when a worker meets a new shape after warm-up; this checks the
// reservation itself.
func TestReserveWorkersSorter(t *testing.T) {
	for _, sh := range []struct{ n, rows int }{
		{64, 375}, {1713, 375}, {3000, 1 << 20}, {2500, math.MaxInt32},
	} {
		for _, alg := range []Algorithm{Hash, SPA, SlidingHash} {
			if alg == SPA && sh.rows > 1<<20 {
				continue // the SPA's dense array would take the rows
			}
			ws := NewWorkspaceOf[matrix.Value](false)
			as := []*matrix.CSC{matrix.NewCSC(sh.rows, 3, 0)}
			ws.begin(as, planOf[matrix.Value]{alg: alg}, OptionsOf[matrix.Value]{Threads: 3, SortedOutput: true}, nil)
			ws.reserveWorkers([]int64{int64(sh.n), 1, 1}, sh.rows, false)
			n := min(sh.n, sh.rows)
			for _, span := range []int64{int64(n), min(int64(sh.rows), int64(bitmapSpanPerEntry*n)), int64(sh.rows)} {
				rows, vals := rowSortColumn(rowSortCase{n: n, span: span}, 1, func(r matrix.Index) matrix.Value { return float64(r) })
				m := pickRowSort(n, uint64(span))
				lo, hi := slices.Min(rows), slices.Max(rows)
				for w := 0; w < 3; w++ {
					s := &ws.workers[w].sorter
					if allocs := allocsOnce(func() { s.sortBy(m, rows, vals, lo, hi) }); allocs != 0 {
						t.Errorf("%v n=%d rows=%d span=%d: worker %d allocates %d times sorting by method %d",
							alg, n, sh.rows, span, w, allocs, m)
					}
				}
			}
			ws.end()
			ws.Close()
		}
	}
}

// allocsOnce counts the heap allocations of one call of f, with no
// warm-up call (testing.AllocsPerRun makes one, which would do the
// growing a missing reservation leaves to the first column).
func allocsOnce(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// BenchmarkRowSort times both methods of the row sorter on shuffled
// float64 columns by n and span/n, copy-in included, in ns per entry:
// the evidence for bitmapSpanPerEntry (DESIGN.md §4).
func BenchmarkRowSort(b *testing.B) {
	methods := []struct {
		name string
		m    rowSortMethod
	}{{"bitmap", sortBitmap}, {"quick", sortQuick}}
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		for _, ratio := range []int64{2, 16, 32, 64, 128, 512} {
			c := rowSortCase{n: n, span: int64(n) * ratio}
			src, srcVals := rowSortColumn(c, 1, func(r matrix.Index) matrix.Value { return float64(r) })
			lo, hi := slices.Min(src), slices.Max(src)
			for _, m := range methods {
				b.Run(fmt.Sprintf("n=%d/span=%dn/%s", n, ratio, m.name), func(b *testing.B) {
					var s rowSorterOf[matrix.Value]
					rows, vals := slices.Clone(src), slices.Clone(srcVals)
					for i := 0; i < b.N; i++ {
						copy(rows, src)
						copy(vals, srcVals)
						s.sortBy(m.m, rows, vals, lo, hi)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
				})
			}
		}
	}
}
