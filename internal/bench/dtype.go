package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"spkadd/internal/core"
	"spkadd/internal/generate"
	"spkadd/internal/matrix"
)

// dtypeCase is one workload of the value-type experiment: a generator
// pattern × k × d shape. The pattern is the duplicate-rate axis — ER
// draws row indices uniformly (collisions only by birthday arithmetic),
// RMAT concentrates them on hot rows (most entries merge) — so the
// grid covers both the streaming-dominated and the accumulation-
// dominated ends at identical shapes. The measured duplicate rate is
// reported per cell.
type dtypeCase struct {
	pattern string
	k, d    int
}

func dtypeCases() []dtypeCase {
	var cs []dtypeCase
	for _, pattern := range []string{"ER", "RMAT"} {
		for _, k := range []int{8, 32} {
			for _, d := range []int{16, 64, 1024, 16384} {
				cs = append(cs, dtypeCase{pattern, k, d})
			}
		}
	}
	return cs
}

// dtypeRows is the fixed matrix height of the experiment, chosen so
// the SPA's dense value accumulator — pure value bytes, the structure
// whose traffic the element width scales directly — straddles a
// per-core cache: 8·288000 ≈ 2.3MB at float64 overflows a typical
// 1-2MB L2, 4·288000 ≈ 1.15MB at float32 fits. This is the §IV-C
// regime (accumulator size vs cache size) applied to the value axis;
// deliberately not divided by -scale, since shrinking it would collapse
// the two dtypes into the same cache level and measure nothing.
const dtypeRows = 288_000

// toF32 converts a float64 matrix to its float32 twin. The index
// structure (ColPtr, RowIdx) is shared — it is read-only during an
// addition and identical bytes either way — so the A/B isolates
// exactly the value-array traffic the experiment is about.
func toF32(a *matrix.CSC) *matrix.CSCOf[float32] {
	vals := make([]float32, len(a.Val))
	for i, v := range a.Val {
		vals[i] = float32(v)
	}
	return &matrix.CSCOf[float32]{Rows: a.Rows, Cols: a.Cols, ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: vals}
}

// Dtype is the value-type A/B: the same additions run over float64 and
// float32 values, interleaved repetition by repetition so clock drift
// and cache state bias neither side. Both sides run the identical
// pinned plan — SPA — because the SPA accumulator is a dense
// array of values and nothing else, making it the engine where halving
// the element width halves the resident working set (12 → 8 bytes per
// streamed entry besides); a heuristic plan could instead diverge
// between the dtypes, since the planner's size estimates already scale
// with entryBytesOf[T]. Each side reuses a warmed workspace, so
// steady-state adds allocate nothing and the timings measure kernels,
// not the collector. The summary line reports the median float32
// speedup over the d≥64 cells, the number the value-type work is gated
// on; small-d cells ride along as controls.
func Dtype(cfg Config) error {
	// Fixed height (see dtypeRows); -scale shrinks the input volume
	// via the column counts.
	total := 12 << 20 / cfg.scale()
	fmt.Fprintf(cfg.Out, "Value-type A/B: SpKAdd runtime (s), float64 vs float32, SPA, m=%d, ~%dM input entries per cell\n", dtypeRows, total>>20)
	fmt.Fprintf(cfg.Out, "%-20s %8s %12s %12s %9s\n", "Workload", "dup", "float64", "float32", "f32 gain")
	var large []float64 // float32 speedups on d>=64 cells
	for _, c := range dtypeCases() {
		n := total / (c.k * c.d)
		if n < 8 {
			n = 8
		}
		o := generate.Opts{Rows: dtypeRows, Cols: n, NNZPerCol: c.d, Seed: 97}
		var as64 []*matrix.CSC
		if c.pattern == "RMAT" {
			as64 = generate.RMATCollection(c.k, o, generate.Graph500)
		} else {
			as64 = generate.ERCollection(c.k, o)
		}
		as32 := make([]*matrix.CSCOf[float32], len(as64))
		in := 0
		for i, a := range as64 {
			in += a.NNZ()
			as32[i] = toF32(a)
		}
		opt64 := core.Options{Algorithm: core.SPA, Threads: cfg.Threads, CacheBytes: cfg.cacheBytes()}
		opt32 := core.OptionsOf[float32]{Algorithm: core.SPA, Threads: cfg.Threads, CacheBytes: cfg.cacheBytes()}
		ws64, ws32 := core.NewWorkspaceOf[float64](true), core.NewWorkspaceOf[float32](true)
		b, err := ws64.Add(as64, opt64)
		if err != nil {
			return fmt.Errorf("dtype %s k=%d d=%d f64 warmup: %w", c.pattern, c.k, c.d, err)
		}
		dup := 1 - float64(b.NNZ())/float64(in)
		if _, err := ws32.Add(as32, opt32); err != nil {
			return fmt.Errorf("dtype %s k=%d d=%d f32 warmup: %w", c.pattern, c.k, c.d, err)
		}
		var best64, best32 time.Duration = -1, -1
		for r := 0; r < cfg.reps(); r++ {
			runtime.GC()
			start := time.Now()
			if _, err := ws64.Add(as64, opt64); err != nil {
				return fmt.Errorf("dtype %s k=%d d=%d f64: %w", c.pattern, c.k, c.d, err)
			}
			if d := time.Since(start); best64 < 0 || d < best64 {
				best64 = d
			}
			runtime.GC()
			start = time.Now()
			if _, err := ws32.Add(as32, opt32); err != nil {
				return fmt.Errorf("dtype %s k=%d d=%d f32: %w", c.pattern, c.k, c.d, err)
			}
			if d := time.Since(start); best32 < 0 || d < best32 {
				best32 = d
			}
		}
		gain := float64(best64) / float64(best32)
		if c.d >= 64 {
			large = append(large, gain)
		}
		fmt.Fprintf(cfg.Out, "%-20s %7.1f%% %12s %12s %8.2fx\n",
			fmt.Sprintf("%s k=%d d=%d", c.pattern, c.k, c.d), 100*dup, fmtDur(best64), fmtDur(best32), gain)
	}
	sort.Float64s(large)
	med := large[len(large)/2]
	if len(large)%2 == 0 {
		med = (large[len(large)/2-1] + large[len(large)/2]) / 2
	}
	fmt.Fprintf(cfg.Out, "median float32 speedup on d>=64 cells: %.2fx\n\n", med)
	return nil
}
