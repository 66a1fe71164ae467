package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spkadd/internal/matrix"
)

func TestMergeCountAndInto(t *testing.T) {
	ar := []matrix.Index{1, 3, 6}
	av := []matrix.Value{3, 2, 1}
	br := []matrix.Index{0, 3, 5}
	bv := []matrix.Value{2, 1, 3}
	n := mergeCount(ar, br)
	if n != 5 {
		t.Fatalf("mergeCount = %d, want 5", n)
	}
	or := make([]matrix.Index, n)
	ov := make([]matrix.Value, n)
	if got := mergeInto(ar, av, br, bv, or, ov); got != n {
		t.Fatalf("mergeInto wrote %d, want %d", got, n)
	}
	wantR := []matrix.Index{0, 1, 3, 5, 6}
	wantV := []matrix.Value{2, 3, 3, 3, 1}
	for i := range wantR {
		if or[i] != wantR[i] || ov[i] != wantV[i] {
			t.Fatalf("merged = %v/%v, want %v/%v", or, ov, wantR, wantV)
		}
	}
}

func TestMergeEmptySides(t *testing.T) {
	r := []matrix.Index{2, 4}
	v := []matrix.Value{1, 2}
	if mergeCount(nil, r) != 2 || mergeCount(r, nil) != 2 || mergeCount(nil, nil) != 0 {
		t.Fatal("mergeCount wrong on empty inputs")
	}
	or := make([]matrix.Index, 2)
	ov := make([]matrix.Value, 2)
	if mergeInto(nil, nil, r, v, or, ov) != 2 || or[0] != 2 || ov[1] != 2 {
		t.Fatal("mergeInto wrong with empty left side")
	}
}

func TestQuickMergeMatchesMapUnion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() ([]matrix.Index, []matrix.Value) {
			n := rng.Intn(30)
			set := map[matrix.Index]bool{}
			var rs []matrix.Index
			for len(rs) < n {
				r := matrix.Index(rng.Intn(50))
				if !set[r] {
					set[r] = true
					rs = append(rs, r)
				}
			}
			sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
			vs := make([]matrix.Value, len(rs))
			for i := range vs {
				vs[i] = float64(rng.Intn(9) + 1)
			}
			return rs, vs
		}
		ar, av := mk()
		br, bv := mk()
		want := map[matrix.Index]matrix.Value{}
		for i, r := range ar {
			want[r] += av[i]
		}
		for i, r := range br {
			want[r] += bv[i]
		}
		n := mergeCount(ar, br)
		if n != len(want) {
			return false
		}
		or := make([]matrix.Index, n)
		ov := make([]matrix.Value, n)
		mergeInto(ar, av, br, bv, or, ov)
		for i := 1; i < n; i++ {
			if or[i] <= or[i-1] {
				return false
			}
		}
		for i, r := range or {
			if want[r] != ov[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSortPairsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		rows := make([]matrix.Index, n)
		vals := make([]matrix.Value, n)
		perm := rng.Perm(1 << 16)
		for i := range rows {
			rows[i] = matrix.Index(perm[i]) // distinct keys
			vals[i] = float64(rows[i]) + 0.5
		}
		sortPairs(rows, vals)
		for i := range rows {
			if i > 0 && rows[i] < rows[i-1] {
				return false
			}
			if vals[i] != float64(rows[i])+0.5 {
				return false // value detached from its row
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSortPairsLongColumns sorts 3000-entry columns of distinct keys and
// checks that every value stays with its row: one shuffled, one made of
// concatenated sorted runs, the shape the hash emits of Add and Mul
// produce (one ascending run per input column merged in).
func TestSortPairsLongColumns(t *testing.T) {
	sorts := func(rows []matrix.Index) bool {
		vals := make([]matrix.Value, len(rows))
		for i, r := range rows {
			vals[i] = float64(r) * 2
		}
		sortPairs(rows, vals)
		for i := range rows {
			if i > 0 && rows[i] <= rows[i-1] {
				return false
			}
			if vals[i] != float64(rows[i])*2 {
				return false // value detached from its row
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(5))
	keys := rng.Perm(1 << 16)[:3000]
	shuffled := make([]matrix.Index, len(keys))
	for i, k := range keys {
		shuffled[i] = matrix.Index(k)
	}
	if !sorts(shuffled) {
		t.Error("a shuffled 3000-entry column did not sort")
	}

	sort.Ints(keys)
	runs := make([][]matrix.Index, 12)
	for _, k := range keys { // dealt in ascending order, so each run ascends
		r := rng.Intn(len(runs))
		runs[r] = append(runs[r], matrix.Index(k))
	}
	var col []matrix.Index
	for _, run := range runs {
		col = append(col, run...)
	}
	if !sorts(col) {
		t.Error("a 3000-entry column of concatenated sorted runs did not sort")
	}
}
