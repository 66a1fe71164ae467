package hashtab

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spkadd/internal/matrix"
)

func TestSizeFor(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{0, 1},
		{1, 4},
		{3, 8},
		{100, 256},
	}
	for _, c := range cases {
		if got := SizeFor(c.n); got != c.want {
			t.Errorf("SizeFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestTableAccumulates(t *testing.T) {
	tab := &TableOf[matrix.Value]{}
	tab.Grow(10)
	Accum(tab, 5, 1.5)
	Accum(tab, 7, 2)
	Accum(tab, 5, 3)
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	if v, ok := tab.Get(5); !ok || v != 4.5 {
		t.Errorf("Get(5) = %v,%v want 4.5,true", v, ok)
	}
	if v, ok := tab.Get(7); !ok || v != 2 {
		t.Errorf("Get(7) = %v,%v want 2,true", v, ok)
	}
	if _, ok := tab.Get(6); ok {
		t.Error("Get(6) should miss")
	}
}

func TestTableCollisionsResolve(t *testing.T) {
	// Multiples of 16 all hash to slot 0 of the 16-slot table a 4-key
	// table gets, so every insert after the first probes past it.
	tab := &TableOf[matrix.Value]{}
	tab.Grow(4)
	keys := []matrix.Index{0, 16, 32, 48}
	for i, k := range keys {
		Accum(tab, k, float64(i+1))
	}
	if tab.Cap() != 16 {
		t.Fatalf("Cap = %d, want 16", tab.Cap())
	}
	for i, k := range keys {
		if v, ok := tab.Get(k); !ok || v != float64(i+1) {
			t.Errorf("Get(%d) = %v,%v want %d,true", k, v, ok, i+1)
		}
	}
}

func TestAppendEntriesRoundTrip(t *testing.T) {
	tab := &TableOf[matrix.Value]{}
	tab.Grow(64)
	want := map[matrix.Index]matrix.Value{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		r := matrix.Index(rng.Intn(50))
		v := float64(rng.Intn(10))
		Accum(tab, r, v)
		want[r] += v
	}
	rows, vals := tab.AppendEntries(nil, nil)
	if len(rows) != len(want) || tab.Len() != len(want) {
		t.Fatalf("got %d entries, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if vals[i] != want[r] {
			t.Errorf("row %d: got %v want %v", r, vals[i], want[r])
		}
	}
	// Entries must be extractable in sorted order after an explicit sort.
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	for i := 1; i < len(rows); i++ {
		if rows[i] == rows[i-1] {
			t.Error("duplicate key extracted")
		}
	}
}

// TestAppendEntriesInsertionOrder checks that entries come out in
// first-insertion order under both insert paths, whatever the table
// went through first: a Grow that narrows the window, a Grow that
// reallocates storage, or a Reset across an epoch wraparound. Each
// case starts from a table holding stale entries, so a leftover stamp
// or slot would show up in the output.
func TestAppendEntriesInsertionOrder(t *testing.T) {
	plus := func(a, b matrix.Value) matrix.Value { return a + b }
	inserts := []struct {
		name   string
		insert func(*TableOf[matrix.Value], matrix.Index, matrix.Value)
	}{
		{"Accum", func(tab *TableOf[matrix.Value], r matrix.Index, v matrix.Value) { Accum(tab, r, v) }},
		{"AddWith", func(tab *TableOf[matrix.Value], r matrix.Index, v matrix.Value) { tab.AddWith(r, v, plus) }},
	}
	const stale = 1024
	cases := []struct {
		name    string
		prepare func(*TableOf[matrix.Value])
		storage int // len(keys) the case must leave behind
	}{
		{"narrowed", func(tab *TableOf[matrix.Value]) { tab.Grow(64) }, SizeFor(stale)},
		{"reallocated", func(tab *TableOf[matrix.Value]) { tab.Grow(4 * stale) }, SizeFor(4 * stale)},
		{"wraparound", func(tab *TableOf[matrix.Value]) { tab.epoch = math.MaxUint32; tab.Reset() }, SizeFor(stale)},
	}
	for _, in := range inserts {
		for _, c := range cases {
			tab := &TableOf[matrix.Value]{}
			tab.Grow(stale)
			for r := 0; r < stale; r++ {
				Accum(tab, matrix.Index(3*r), 1)
			}
			c.prepare(tab)
			if tab.Len() != 0 || len(tab.keys) != c.storage {
				t.Fatalf("%s/%s: Len=%d storage=%d after prepare, want 0 and %d", in.name, c.name, tab.Len(), len(tab.keys), c.storage)
			}
			rng := rand.New(rand.NewSource(3))
			var first []matrix.Index
			want := map[matrix.Index]matrix.Value{}
			for i := 0; i < 200; i++ {
				r := matrix.Index(rng.Intn(100))
				v := matrix.Value(rng.Intn(10))
				if _, seen := want[r]; !seen {
					first = append(first, r)
				}
				in.insert(tab, r, v)
				want[r] += v
			}
			rows, vals := tab.AppendEntries(nil, nil)
			if len(rows) != len(first) {
				t.Fatalf("%s/%s: %d entries, want %d", in.name, c.name, len(rows), len(first))
			}
			for i, r := range rows {
				if r != first[i] || vals[i] != want[r] {
					t.Fatalf("%s/%s: entry %d = (%d,%v), want (%d,%v)", in.name, c.name, i, r, vals[i], first[i], want[first[i]])
				}
			}
		}
	}
}

func TestTableResetAndGrow(t *testing.T) {
	tab := &TableOf[matrix.Value]{}
	tab.Grow(8)
	Accum(tab, 1, 1)
	tab.Reset()
	if tab.Len() != 0 {
		t.Error("Reset did not clear")
	}
	if _, ok := tab.Get(1); ok {
		t.Error("entry survived Reset")
	}
	tab.Grow(4)
	if tab.Cap() != SizeFor(4) {
		t.Errorf("Grow must narrow the active window: cap=%d want %d", tab.Cap(), SizeFor(4))
	}
	tab.Grow(10_000)
	if tab.Cap() < 20_000 {
		t.Errorf("Grow(10000) cap = %d", tab.Cap())
	}
	Accum(tab, 9999, 3)
	if v, _ := tab.Get(9999); v != 3 {
		t.Error("table broken after Grow")
	}
}

func TestSymbolicCountsDistinct(t *testing.T) {
	s := &TableOf[matrix.Value]{}
	s.Grow(100)
	seen := map[matrix.Index]bool{}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		r := matrix.Index(rng.Intn(80))
		isNew := s.Insert(r)
		if isNew == seen[r] {
			t.Fatalf("Insert(%d) new=%v but seen=%v", r, isNew, seen[r])
		}
		seen[r] = true
	}
	if s.Len() != len(seen) {
		t.Errorf("Len = %d, want %d", s.Len(), len(seen))
	}
	// A Reset after counting leaves a table the numeric phase can
	// fill and emit: the stale slot list is not read.
	s.Reset()
	Accum(s, 7, 2)
	Accum(s, 7, 3)
	rows, vals := s.AppendEntries(nil, nil)
	if len(rows) != 1 || rows[0] != 7 || vals[0] != 5 {
		t.Errorf("after Reset: entries %v %v, want [7] [5]", rows, vals)
	}
}

func TestQuickTableMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		tab := &TableOf[matrix.Value]{}
		tab.Grow(n/4 + 1)
		want := map[matrix.Index]matrix.Value{}
		for i := 0; i < n; i++ {
			r := matrix.Index(rng.Intn(64))
			v := float64(rng.Intn(20) - 10)
			tab.Grow(len(want) + 1 + i) // keep capacity ahead of inserts
			// Grow clears; rebuild from the map to mimic steady state.
			tab.Reset()
			for kr, kv := range want {
				Accum(tab, kr, kv)
			}
			Accum(tab, r, v)
			want[r] += v
		}
		if tab.Len() != len(want) {
			return false
		}
		for kr, kv := range want {
			if v, ok := tab.Get(kr); !ok || v != kv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestProbeCounterMonotone(t *testing.T) {
	tab := &TableOf[matrix.Value]{}
	tab.Grow(16)
	Accum(tab, 1, 1)
	if tab.Probes < 1 {
		t.Error("probe counter not advancing")
	}
	p := tab.Probes
	Accum(tab, 2, 1)
	if tab.Probes <= p {
		t.Error("probe counter not monotone")
	}
}

// TestAddWithMatchesAdd checks the generic-combine insert against the
// specialized "+" path, and that a non-Plus combine actually applies.
func TestAddWithMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	plus := func(a, b matrix.Value) matrix.Value { return a + b }
	tab, ref := &TableOf[matrix.Value]{}, &TableOf[matrix.Value]{}
	tab.Grow(64)
	ref.Grow(64)
	for i := 0; i < 500; i++ {
		r := matrix.Index(rng.Intn(100))
		v := matrix.Value(rng.NormFloat64())
		tab.AddWith(r, v, plus)
		Accum(ref, r, v)
	}
	if tab.Len() != ref.Len() {
		t.Fatalf("Len = %d, want %d", tab.Len(), ref.Len())
	}
	for r := matrix.Index(0); r < 100; r++ {
		got, ok1 := tab.Get(r)
		want, ok2 := ref.Get(r)
		if ok1 != ok2 || got != want {
			t.Fatalf("Get(%d) = %v,%v want %v,%v", r, got, ok1, want, ok2)
		}
	}

	mn := &TableOf[matrix.Value]{}
	mn.Grow(8)
	mn.AddWith(3, 5, func(a, b matrix.Value) matrix.Value { return min(a, b) })
	mn.AddWith(3, 2, func(a, b matrix.Value) matrix.Value { return min(a, b) })
	mn.AddWith(3, 9, func(a, b matrix.Value) matrix.Value { return min(a, b) })
	if v, _ := mn.Get(3); v != 2 {
		t.Errorf("min-combine Get(3) = %v, want 2", v)
	}
}
