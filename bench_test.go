// Benchmarks regenerating each paper artifact at reduced size, one
// family per table/figure. Run with:
//
//	go test -bench=. -benchmem
//
// The full paper-shaped sweeps (with the paper's k and d grids) live in
// cmd/spkadd-bench; these testing.B benchmarks are the quick,
// regression-trackable counterparts.
package spkadd_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"spkadd/internal/faults"

	"spkadd"
	"spkadd/internal/cachesim"
	"spkadd/internal/core"
	"spkadd/internal/generate"
	"spkadd/internal/matrix"
)

const benchRows = 1 << 16

func benchAlgorithms() []spkadd.Algorithm {
	return []spkadd.Algorithm{
		spkadd.TwoWayIncremental, spkadd.TwoWayTree, spkadd.Heap,
		spkadd.SPA, spkadd.Hash, spkadd.SlidingHash,
	}
}

func addLoop(b *testing.B, as []*spkadd.Matrix, opt spkadd.Options) {
	b.Helper()
	in := 0
	for _, a := range as {
		in += a.NNZ()
	}
	b.SetBytes(int64(in) * 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spkadd.Add(as, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 covers Table III: ER collections across (d, k) for
// every algorithm.
func BenchmarkTable3(b *testing.B) {
	for _, d := range []int{16, 256} {
		for _, k := range []int{4, 32} {
			as := generate.ERCollection(k, generate.Opts{Rows: benchRows, Cols: 32, NNZPerCol: d, Seed: 1})
			for _, alg := range benchAlgorithms() {
				b.Run(fmt.Sprintf("d=%d/k=%d/%v", d, k, alg), func(b *testing.B) {
					addLoop(b, as, spkadd.Options{Algorithm: alg})
				})
			}
		}
	}
}

// BenchmarkTable4 covers Table IV: RMAT collections (column-split
// construction) across (d, k).
func BenchmarkTable4(b *testing.B) {
	for _, d := range []int{16, 256} {
		for _, k := range []int{4, 32} {
			as := generate.RMATCollection(k, generate.Opts{Rows: benchRows, Cols: 32, NNZPerCol: d, Seed: 2}, generate.Graph500)
			for _, alg := range benchAlgorithms() {
				b.Run(fmt.Sprintf("d=%d/k=%d/%v", d, k, alg), func(b *testing.B) {
					addLoop(b, as, spkadd.Options{Algorithm: alg})
				})
			}
		}
	}
}

// BenchmarkFig2 covers the Fig 2 winner-grid workloads at the grid
// corners for both sparsity patterns (the full sweep is
// `spkadd-bench -exp fig2er/fig2rmat`).
func BenchmarkFig2(b *testing.B) {
	cases := []struct {
		pattern string
		k, d    int
	}{
		{"ER", 4, 16}, {"ER", 128, 16}, {"ER", 4, 1024}, {"ER", 64, 512},
		{"RMAT", 4, 16}, {"RMAT", 64, 64},
	}
	for _, c := range cases {
		var as []*matrix.CSC
		o := generate.Opts{Rows: benchRows, Cols: 16, NNZPerCol: c.d, Seed: 3}
		if c.pattern == "ER" {
			as = generate.ERCollection(c.k, o)
		} else {
			as = generate.RMATCollection(c.k, o, generate.Graph500)
		}
		for _, alg := range []spkadd.Algorithm{spkadd.Hash, spkadd.SlidingHash, spkadd.Heap, spkadd.TwoWayTree} {
			b.Run(fmt.Sprintf("%s/k=%d/d=%d/%v", c.pattern, c.k, c.d, alg), func(b *testing.B) {
				addLoop(b, as, spkadd.Options{Algorithm: alg})
			})
		}
	}
}

// BenchmarkFig3Scaling covers the strong-scaling panels: the hash
// algorithm at increasing thread counts on ER, RMAT and
// Eukarya-intermediate-like inputs.
func BenchmarkFig3Scaling(b *testing.B) {
	panels := map[string][]*matrix.CSC{
		"ER":      generate.ERCollection(32, generate.Opts{Rows: benchRows, Cols: 32, NNZPerCol: 128, Seed: 4}),
		"RMAT":    generate.RMATCollection(32, generate.Opts{Rows: benchRows, Cols: 32, NNZPerCol: 128, Seed: 5}, generate.Graph500),
		"Eukarya": generate.ClusteredCollection(64, generate.Opts{Rows: benchRows, Cols: 16, NNZPerCol: 240, Seed: 6}, 22),
	}
	for name, as := range panels {
		for _, t := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/threads=%d", name, t), func(b *testing.B) {
				addLoop(b, as, spkadd.Options{Algorithm: spkadd.Hash, Threads: t})
			})
		}
	}
}

// BenchmarkFig4TableSize covers the hash-table-size sweep: sliding
// hash with explicit table caps on the Fig 4(b)-like workload.
func BenchmarkFig4TableSize(b *testing.B) {
	as := generate.ERCollection(64, generate.Opts{Rows: benchRows, Cols: 16, NNZPerCol: 512, Seed: 7})
	for _, size := range []int{256, 1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			addLoop(b, as, spkadd.Options{Algorithm: spkadd.SlidingHash, MaxTableEntries: size})
		})
	}
}

// BenchmarkTable5Trace covers the cache-simulation path behind
// Table V.
func BenchmarkTable5Trace(b *testing.B) {
	as := generate.ERCollection(32, generate.Opts{Rows: benchRows, Cols: 8, NNZPerCol: 512, Seed: 8})
	for _, sliding := range []bool{false, true} {
		b.Run(fmt.Sprintf("sliding=%v", sliding), func(b *testing.B) {
			cfg := cachesim.TraceConfig{CacheBytes: 1 << 20, Threads: 8, Sliding: sliding}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cachesim.TraceSpKAdd(as, cfg)
			}
		})
	}
}

// BenchmarkFig6Summa covers the distributed-SpGEMM experiment: the
// three SpKAdd variants inside a simulated SUMMA run.
func BenchmarkFig6Summa(b *testing.B) {
	a := generate.ProteinLike(1500, 128, 96, 9)
	bb := generate.ProteinLike(1500, 128, 96, 10)
	variants := []struct {
		name string
		alg  spkadd.Algorithm
		sort bool
	}{
		{"Heap", spkadd.Heap, true},
		{"SortedHash", spkadd.Hash, true},
		{"UnsortedHash", spkadd.Hash, false},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _, err := spkadd.RunSumma(a, bb, spkadd.SummaConfig{
					Grid: 8, SpKAdd: v.alg, SortIntermediates: v.sort,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSortedOutput quantifies the cost of sorted output
// for the hash algorithm (the sorted-vs-unsorted hash gap of Fig 6):
// the sorted run reports its time over the unsorted run's as
// sorted/unsorted.
func BenchmarkAblationSortedOutput(b *testing.B) {
	as := generate.ERCollection(32, generate.Opts{Rows: benchRows, Cols: 32, NNZPerCol: 256, Seed: 13})
	var unsortedNs float64
	for _, sorted := range []bool{false, true} {
		b.Run(fmt.Sprintf("sorted=%v", sorted), func(b *testing.B) {
			addLoop(b, as, spkadd.Options{Algorithm: spkadd.Hash, SortedOutput: sorted})
			reportSortedRatio(b, sorted, &unsortedNs)
		})
	}
}

// reportSortedRatio keeps an unsorted run's ns/op in *unsortedNs and
// reports a later sorted run's ns/op over it as the sorted/unsorted
// metric, the ratio Fig 6 puts at about 1.2 for hash SpKAdd.
func reportSortedRatio(b *testing.B, sorted bool, unsortedNs *float64) {
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	if !sorted {
		*unsortedNs = ns
	} else if *unsortedNs > 0 {
		b.ReportMetric(ns / *unsortedNs, "sorted/unsorted")
	}
}

// BenchmarkColAdd benchmarks the 2-way merge kernel in isolation, the
// building block of Algorithm 1.
func BenchmarkColAdd(b *testing.B) {
	x := generate.ER(generate.Opts{Rows: benchRows, Cols: 64, NNZPerCol: 512, Seed: 14})
	y := generate.ER(generate.Opts{Rows: benchRows, Cols: 64, NNZPerCol: 512, Seed: 15})
	b.SetBytes(int64(x.NNZ()+y.NNZ()) * 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spkadd.Add([]*spkadd.Matrix{x, y}, spkadd.Options{Algorithm: spkadd.TwoWayIncremental}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpGEMM benchmarks the local multiply kernel, sorted vs
// unsorted output (the 20%-faster-multiply claim of Fig 6); the sorted
// run reports the sorted/unsorted ratio.
func BenchmarkSpGEMM(b *testing.B) {
	a := generate.ProteinLike(4000, 128, 64, 16)
	c := generate.ProteinLike(4000, 128, 64, 17)
	var unsortedNs float64
	for _, sorted := range []bool{false, true} {
		b.Run(fmt.Sprintf("sorted=%v", sorted), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := spkadd.Multiply(a, c, spkadd.MulOptions{SortOutput: sorted}); err != nil {
					b.Fatal(err)
				}
			}
			reportSortedRatio(b, sorted, &unsortedNs)
		})
	}
}

// adderReuseConfigs is the grid shared by BenchmarkAdderReuse and
// BenchmarkAdderOneShot: both engines — Hash, SPA and Heap on the
// single pass, SlidingHash on the two-pass driver, unpartitioned and
// partitioned by a table cap — sorted and unsorted, on a small
// repeated-addition workload where allocation amortization matters
// most. Threads is pinned to 1 so the reused path has a goroutine-free
// steady state — the CI allocation gate greps these results for
// nonzero allocs/op.
func adderReuseConfigs() []spkadd.Options {
	var opts []spkadd.Options
	for _, base := range []spkadd.Options{
		{Algorithm: spkadd.Hash}, {Algorithm: spkadd.SPA}, {Algorithm: spkadd.Heap},
		{Algorithm: spkadd.SlidingHash}, {Algorithm: spkadd.SlidingHash, MaxTableEntries: 8},
	} {
		for _, sorted := range []bool{false, true} {
			opt := base
			opt.SortedOutput, opt.Threads = sorted, 1
			opts = append(opts, opt)
		}
	}
	return opts
}

// reuseName labels a reuse-grid cell: the algorithm, SlidingHash's
// table cap when one is set, and sortedness.
func reuseName(opt spkadd.Options) string {
	name := opt.Algorithm.String()
	if opt.MaxTableEntries > 0 {
		name += fmt.Sprintf("/max=%d", opt.MaxTableEntries)
	}
	return fmt.Sprintf("%s/sorted=%v", name, opt.SortedOutput)
}

func adderReuseInputs() []*spkadd.Matrix {
	return generate.ERCollection(8, generate.Opts{Rows: 1 << 11, Cols: 64, NNZPerCol: 4, Seed: 21})
}

// BenchmarkAdderReuse measures the steady state of a reused Adder: by
// construction it must report 0 allocs/op for every configuration
// (TestAdderZeroSteadyStateAllocs asserts the same invariant; CI
// fails the build if either regresses). Compare against
// BenchmarkAdderOneShot for the throughput gain of buffer reuse.
func BenchmarkAdderReuse(b *testing.B) {
	as := adderReuseInputs()
	for _, opt := range adderReuseConfigs() {
		b.Run(reuseName(opt), func(b *testing.B) {
			ad := spkadd.NewAdder()
			for warm := 0; warm < 3; warm++ {
				if _, err := ad.Add(as, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ad.Add(as, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdderReuseMonoid is BenchmarkAdderReuse on the generic
// combine path: a warmed non-Plus Adder must also report 0 allocs/op
// (the CI allocation gate greps it together with BenchmarkAdderReuse),
// and its runtime against the Plus rows quantifies the generic path's
// per-element indirect-call overhead.
func BenchmarkAdderReuseMonoid(b *testing.B) {
	as := adderReuseInputs()
	for _, m := range []*spkadd.Monoid{spkadd.Min, spkadd.Count} {
		for _, alg := range []spkadd.Algorithm{spkadd.Hash, spkadd.SPA, spkadd.Heap, spkadd.SlidingHash} {
			opt := spkadd.Options{Algorithm: alg, Monoid: m, SortedOutput: true, Threads: 1}
			b.Run(fmt.Sprintf("%s/%v", m.Name, opt.Algorithm), func(b *testing.B) {
				ad := spkadd.NewAdder()
				for warm := 0; warm < 3; warm++ {
					if _, err := ad.Add(as, opt); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ad.Add(as, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// bandInputs is the wide collection of the sorted allocation gate: 8
// inputs of 2^20 rows whose 8 columns each hold about 1.6K distinct
// rows in a 4096-row band from row j·2^17. Their span passes the row
// sorter's bitmap rule, so each sorted emit sorts by bitmap with
// scratch for 50 times the ~32-entry columns of adderReuseInputs.
func bandInputs() []*spkadd.Matrix {
	band := generate.ERCollection(8, generate.Opts{Rows: 1 << 12, Cols: 8, NNZPerCol: 256, Seed: 32})
	as := make([]*spkadd.Matrix, len(band))
	for i, src := range band {
		a := &spkadd.Matrix{Rows: 1 << 20, Cols: src.Cols, ColPtr: src.ColPtr, Val: src.Val}
		for j := 0; j < src.Cols; j++ {
			for _, r := range src.ColRows(j) {
				a.RowIdx = append(a.RowIdx, r+spkadd.Index(j)<<17)
			}
		}
		as[i] = a
	}
	return as
}

// BenchmarkAdderReuseSched is BenchmarkAdderReuse at default
// (GOMAXPROCS) threads, for both engines (Hash single-pass,
// SlidingHash two-pass): the CI allocation gate greps
// it with the other reuse benchmarks, so a warmed Adder must report 0
// allocs/op with its phases running as multi-worker regions too —
// stealing and the scheduling machinery included, which is what the
// resident executor exists to guarantee. The Band cells add the wide
// bandInputs, whose long columns sort by bitmap, for every algorithm
// that calls the row sorter. The Auto cell runs the default options on
// 8 ER inputs of 2^11 rows, 64 columns and d = 16 (kd = 128, so
// m/kd = 16), which Auto resolves to SPA; it fails if a warm-up call
// touched no SPA, so the cell cannot drift back to Hash unnoticed.
// The CI sched smoke runs it at -cpu 1,4, so the steal loop executes
// on every change.
func BenchmarkAdderReuseSched(b *testing.B) {
	reuse, band := adderReuseInputs(), bandInputs()
	dense := generate.ERCollection(8, generate.Opts{Rows: 1 << 11, Cols: 64, NNZPerCol: 16, Seed: 33})
	for _, c := range []struct {
		name string
		as   []*spkadd.Matrix
		alg  spkadd.Algorithm
	}{
		{"SlidingHash", reuse, spkadd.SlidingHash},
		{"Hash", reuse, spkadd.Hash},
		{"Band/SlidingHash", band, spkadd.SlidingHash},
		{"Band/Hash", band, spkadd.Hash},
		{"Band/SPA", band, spkadd.SPA},
		{"Auto", dense, spkadd.Auto},
	} {
		as, opt := c.as, spkadd.Options{Algorithm: c.alg, SortedOutput: true}
		b.Run(c.name, func(b *testing.B) {
			ad := spkadd.NewAdder()
			var st spkadd.OpStats
			warmOpt := opt
			warmOpt.Stats = &st
			for warm := 0; warm < 3; warm++ {
				if _, err := ad.Add(as, warmOpt); err != nil {
					b.Fatal(err)
				}
			}
			if c.alg == spkadd.Auto && st.SPATouches.Load() == 0 {
				b.Fatal("Auto did not resolve to SPA on its warm-up calls")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ad.Add(as, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkspaceSpread times the same call on fresh workspaces and
// reports how far apart they run. Each iteration builds 8 fresh Adders
// over inputs shaped like the kadd-rmat benchmark workload's (R-MAT,
// 2^17 x 256, d = 32): 128 of them for SPA, 16 for Heap and
// SlidingHash. Each Adder runs 2 warm-up calls at Threads 2 and then 7
// timed ones, and the benchmark reports the slowest Adder's median
// over the fastest's as max/min. Where two workers' kernel state can
// share a cache line, the sharing is fixed by where a workspace's
// worker states land, so max/min near 2 means one speed per workspace
// and two speeds in all (DESIGN.md §4). It is a benchmark, not a test,
// because timing tests flake.
func BenchmarkWorkspaceSpread(b *testing.B) {
	const adders, warm, timed = 8, 2, 7
	in := generate.RMATCollection(128, generate.Opts{Rows: 1 << 17, Cols: 256, NNZPerCol: 32, Seed: 1}, generate.Graph500)
	for _, c := range []struct {
		name string
		alg  spkadd.Algorithm
		k    int
	}{
		{"SPA", spkadd.SPA, 128},
		{"Heap", spkadd.Heap, 16},
		{"SlidingHash", spkadd.SlidingHash, 16},
	} {
		as, opt := in[:c.k], spkadd.Options{Algorithm: c.alg, Threads: 2}
		b.Run(c.name, func(b *testing.B) {
			var spread float64
			for i := 0; i < b.N; i++ {
				medians := make([]time.Duration, adders)
				for a := range medians {
					ad := spkadd.NewAdder()
					times := make([]time.Duration, warm+timed)
					for r := range times {
						start := time.Now()
						if _, err := ad.Add(as, opt); err != nil {
							b.Fatal(err)
						}
						times[r] = time.Since(start)
					}
					times = times[warm:]
					slices.Sort(times)
					medians[a] = times[timed/2]
				}
				spread = float64(slices.Max(medians)) / float64(slices.Min(medians))
			}
			b.ReportMetric(spread, "max/min")
		})
	}
}

// BenchmarkAdderReuseFaultsOff gates the fault-injection harness's
// disabled cost: the injection sites (internal/faults) are compiled
// into the kernels and the executor permanently, and with no injector
// active a warmed Adder must still report exactly 0 allocs/op — one
// atomic load per site, nothing more. CI greps it with the other
// reuse benchmarks; nonzero allocs/op fails the build. The sched rows
// additionally cross the executor's WorkerStall site.
func BenchmarkAdderReuseFaultsOff(b *testing.B) {
	if faults.Active() != nil {
		b.Fatal("an injector is active; this benchmark gates the disabled path")
	}
	as := adderReuseInputs()
	for _, alg := range []spkadd.Algorithm{spkadd.SlidingHash, spkadd.Hash} {
		for _, threads := range []int{1, 4} {
			opt := spkadd.Options{Algorithm: alg, SortedOutput: true, Threads: threads}
			b.Run(fmt.Sprintf("%v/T=%d", alg, threads), func(b *testing.B) {
				ad := spkadd.NewAdder()
				for warm := 0; warm < 3; warm++ {
					if _, err := ad.Add(as, opt); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ad.Add(as, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// convertInputs maps the float64 reuse inputs into a T-valued twin
// collection via f; the index structure is shared (it is read-only
// during an addition).
func convertInputs[T spkadd.Number](as []*spkadd.Matrix, f func(float64) T) []*spkadd.MatrixOf[T] {
	out := make([]*spkadd.MatrixOf[T], len(as))
	for i, a := range as {
		vals := make([]T, len(a.Val))
		for p, v := range a.Val {
			vals[p] = f(v)
		}
		out[i] = &spkadd.MatrixOf[T]{Rows: a.Rows, Cols: a.Cols, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: vals}
	}
	return out
}

// dtypeReuseLoop is the shared body of BenchmarkAdderReuseDtype: a
// warmed AdderOf[T] in its steady state, which must report 0 allocs/op
// for every instantiation exactly like the float64 Adder.
func dtypeReuseLoop[T spkadd.Number](b *testing.B, as []*spkadd.MatrixOf[T], opt spkadd.OptionsOf[T]) {
	ad := spkadd.NewAdderOf[T]()
	for warm := 0; warm < 3; warm++ {
		if _, err := ad.Add(as, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ad.Add(as, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdderReuseDtype is BenchmarkAdderReuse across the non-
// float64 instantiations of the generic value axis: float32, int32 and
// int64 on the Plus fast path, bool on the Any monoid (bool has no
// "+"). The CI allocation gate greps it with the other reuse
// benchmarks — a warmed generic Adder must report exactly 0 allocs/op
// for every element type, proving the type-parameterized kernels
// didn't reintroduce per-call boxing or escapes anywhere on the
// steady-state path, on either engine (Hash single-pass, SlidingHash
// two-pass).
func BenchmarkAdderReuseDtype(b *testing.B) {
	as := adderReuseInputs()
	algs := []spkadd.Algorithm{spkadd.SlidingHash, spkadd.Hash}
	for _, alg := range algs {
		b.Run(fmt.Sprintf("float32/%v", alg), func(b *testing.B) {
			dtypeReuseLoop(b, convertInputs(as, func(v float64) float32 { return float32(v) }),
				spkadd.OptionsOf[float32]{Algorithm: alg, SortedOutput: true, Threads: 1})
		})
	}
	for _, alg := range algs {
		b.Run(fmt.Sprintf("int32/%v", alg), func(b *testing.B) {
			dtypeReuseLoop(b, convertInputs(as, func(v float64) int32 { return int32(v*100) + 1 }),
				spkadd.OptionsOf[int32]{Algorithm: alg, SortedOutput: true, Threads: 1})
		})
	}
	for _, alg := range algs {
		b.Run(fmt.Sprintf("int64/%v", alg), func(b *testing.B) {
			dtypeReuseLoop(b, convertInputs(as, func(v float64) int64 { return int64(v*100) + 1 }),
				spkadd.OptionsOf[int64]{Algorithm: alg, SortedOutput: true, Threads: 1})
		})
	}
	for _, alg := range algs {
		b.Run(fmt.Sprintf("bool/%v", alg), func(b *testing.B) {
			dtypeReuseLoop(b, convertInputs(as, func(v float64) bool { return true }),
				spkadd.OptionsOf[bool]{Algorithm: alg, Monoid: spkadd.AnyFor[bool](), SortedOutput: true, Threads: 1})
		})
	}
}

// BenchmarkAdderOneShot is the one-shot Add counterpart of
// BenchmarkAdderReuse: same workload and configurations, fresh output
// (and pooled scratch) every call.
func BenchmarkAdderOneShot(b *testing.B) {
	as := adderReuseInputs()
	for _, opt := range adderReuseConfigs() {
		b.Run(reuseName(opt), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := spkadd.Add(as, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSymbolicVsNumeric reports the phase split of the paper's
// two-phase hash (the two series of Fig 4) at a high compression
// factor, where the symbolic phase dominates. That formulation is
// unpartitioned SlidingHash: these tables fit the default CacheBytes.
func BenchmarkSymbolicVsNumeric(b *testing.B) {
	as := generate.ClusteredCollection(64, generate.Opts{Rows: benchRows, Cols: 16, NNZPerCol: 240, Seed: 18}, 22)
	b.Run("symbolic+numeric", func(b *testing.B) {
		var sym, num int64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, pt, err := core.AddTimed(as, core.Options{Algorithm: core.SlidingHash})
			if err != nil {
				b.Fatal(err)
			}
			sym += pt.Symbolic.Nanoseconds()
			num += pt.Numeric.Nanoseconds()
		}
		b.ReportMetric(float64(sym)/float64(b.N), "sym-ns/op")
		b.ReportMetric(float64(num)/float64(b.N), "num-ns/op")
	})
}

// BenchmarkPoolThroughput streams deltas from P concurrent producers
// into a sharded Pool (Push through final Sum) across shard counts;
// bytes/op is the absorbed input volume, so MB/s is pool throughput.
// The CI bench smoke runs this once per configuration.
func BenchmarkPoolThroughput(b *testing.B) {
	const rows, cols, d, perProducer = 1 << 14, 64, 8, 24
	for _, producers := range []int{1, 4} {
		streams := make([][]*spkadd.Matrix, producers)
		var in int64
		for p := range streams {
			streams[p] = make([]*spkadd.Matrix, perProducer)
			for i := range streams[p] {
				streams[p][i] = spkadd.RandomER(rows, cols, d, uint64(p*perProducer+i+1))
				in += int64(streams[p][i].NNZ()) * 12
			}
		}
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("producers=%d/shards=%d", producers, shards), func(b *testing.B) {
				b.SetBytes(in)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pool := spkadd.NewPool(rows, cols, spkadd.PoolOptions{
						Shards:      shards,
						BudgetBytes: 8 << 20,
						Add:         spkadd.Options{Algorithm: spkadd.Hash},
					})
					var wg sync.WaitGroup
					for _, stream := range streams {
						wg.Add(1)
						go func(stream []*spkadd.Matrix) {
							defer wg.Done()
							for _, a := range stream {
								if err := pool.Push(a); err != nil {
									b.Error(err)
									return
								}
							}
						}(stream)
					}
					wg.Wait()
					if _, err := pool.Sum(); err != nil {
						b.Fatal(err)
					}
					if err := pool.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
