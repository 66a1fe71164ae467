package main

import (
	"testing"
)

// TestSmoke runs every workload untraced and traced at 1/16 scale. It
// checks the correctness gates and the traces, and that the workloads
// and the metrics each run emits are exactly those BENCHMARK.json
// declares, with the same units.
func TestSmoke(t *testing.T) {
	def, err := readBench("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared, have []string
	for _, w := range def.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sameSet(t, "workloads", have, declared)

	rounds, err := smoke()
	if err != nil {
		t.Error(err)
	}
	for _, rr := range rounds {
		var want []string
		if rr.Trace {
			for _, d := range def.PerLayer {
				want = append(want, d.Name+" "+d.Unit)
			}
			if err := checkSpans(rr.spans); err != nil {
				t.Errorf("%s: %v", rr.Workload, err)
			}
		} else {
			for _, d := range def.EndToEnd {
				want = append(want, d.Name+" "+d.Unit)
			}
		}
		var got []string
		for name, v := range aggregate([]roundResult{rr}, rr.Trace).Metrics {
			got = append(got, name+" "+v.Unit)
		}
		sameSet(t, rr.Workload+" metrics", got, want)
	}
}

// sameSet fails unless got and want hold the same strings, naming
// what each side lacks.
func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	in := func(xs []string) map[string]bool {
		m := map[string]bool{}
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	g, w := in(got), in(want)
	for x := range g {
		if !w[x] {
			t.Errorf("%s: benchmark has %q, BENCHMARK.json does not", what, x)
		}
	}
	for x := range w {
		if !g[x] {
			t.Errorf("%s: BENCHMARK.json has %q, benchmark does not", what, x)
		}
	}
}

func TestCheckSpans(t *testing.T) {
	ok := []span{
		{Name: "op", Op: 1, ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", Op: 1, ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", Op: 1, ID: 2, Parent: 0, Start: 30, End: 90},
	}
	if err := checkSpans(ok); err != nil {
		t.Fatalf("well-formed trace rejected: %v", err)
	}
	if self := selfTimes(ok); self[0] != 20 || self[1] != 30 || self[2] != 60 {
		t.Fatalf("self times %v, want [20 30 60]", self)
	}
	if c := coverage(ok); c != 0.9 {
		t.Fatalf("coverage %v, want 0.9", c)
	}
	bad := map[string]func([]span){
		"outside parent": func(s []span) { s[2].End = 120 },
		"other op":       func(s []span) { s[1].Op = 2 },
		"ends early":     func(s []span) { s[1].End = 5 },
		"parent later":   func(s []span) { s[1].Parent = 2 },
	}
	for name, mutate := range bad {
		s := append([]span(nil), ok...)
		mutate(s)
		if checkSpans(s) == nil {
			t.Errorf("%s: malformed trace accepted", name)
		}
	}
}

// TestQuartiles pins the quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 102}
	for _, c := range []struct {
		b            []float64
		higherBetter bool
		want         string
	}{
		{[]float64{100, 102, 103}, false, "unchanged"},
		{[]float64{120, 121, 122}, false, "worse"},
		{[]float64{80, 81, 82}, false, "improved"},
		{[]float64{80, 81, 82}, true, "worse"},
		{[]float64{60, 100, 140}, false, "unresolved"},
		{[]float64{50, 70, 90}, false, "improved"},
	} {
		if got := verdict(base, c.b, 0.1, c.higherBetter); got != c.want {
			t.Errorf("verdict(%v, %v, higher=%v) = %s, want %s", base, c.b, c.higherBetter, got, c.want)
		}
	}
}
