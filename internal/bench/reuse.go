package bench

import (
	"fmt"
	"time"

	"spkadd/internal/core"
	"spkadd/internal/generate"
)

// reuseIters is how many back-to-back additions one measurement of the
// reuse experiment performs; steady-state behaviour (warm caches, no
// allocation) only shows up across repeated calls, so a single-call
// minimum like timeAdd's would under-report the amortization.
const reuseIters = 32

// Reuse compares the one-shot Add path (pooled scratch, fresh output
// every call) against a reused Workspace — the engine behind the
// public Adder — across k ∈ {2, 8, 32} and d ∈ {4, 16, 64} for the
// Hash, SPA and Heap algorithms. The workload is deliberately
// small/medium: once matrices fit in cache, allocation and GC pressure
// dominate repeated additions, which is exactly what the workspace
// amortizes (streaming graph updates, SUMMA per-stage reductions,
// high-QPS serving).
func Reuse(cfg Config) error {
	m := 1 << 13 / cfg.scale()
	if m < 64 {
		m = 64
	}
	n := 64 / cfg.scale()
	if n < 8 {
		n = 8
	}
	algs := []core.Algorithm{core.Hash, core.SPA, core.Heap}
	fmt.Fprintf(cfg.Out, "Workspace reuse: per-call time (s) over %d repeated additions, m=%d n=%d\n", reuseIters, m, n)
	fmt.Fprintf(cfg.Out, "(reused = one Adder-style workspace, 0 steady-state allocs; speedup vs one-shot Add)\n")
	fmt.Fprintf(cfg.Out, "%-12s %-6s %24s\n", "Workload", "Alg", "one-shot/reused")
	for _, k := range []int{2, 8, 32} {
		for _, d := range []int{4, 16, 64} {
			as := generate.ERCollection(k, generate.Opts{Rows: m, Cols: n, NNZPerCol: d, Seed: 131})
			for _, alg := range algs {
				opt := core.Options{Algorithm: alg, Threads: cfg.Threads, CacheBytes: cfg.cacheBytes()}
				oneshot, err := timeRepeated(cfg.reps(), func() error {
					_, err := core.Add(as, opt)
					return err
				})
				if err != nil {
					return fmt.Errorf("reuse k=%d d=%d %v one-shot: %w", k, d, alg, err)
				}
				ws := core.NewWorkspace(true)
				if _, err := ws.Add(as, opt); err != nil { // warm
					return err
				}
				reused, err := timeRepeated(cfg.reps(), func() error {
					_, err := ws.Add(as, opt)
					return err
				})
				if err != nil {
					return fmt.Errorf("reuse k=%d d=%d %v reused: %w", k, d, alg, err)
				}
				fmt.Fprintf(cfg.Out, "%-12s %-6v %9.2e/%9.2e %4.2fx\n", fmt.Sprintf("k=%d d=%d", k, d), alg,
					oneshot.Seconds(), reused.Seconds(), float64(oneshot)/float64(reused))
			}
		}
	}
	fmt.Fprintln(cfg.Out)
	return nil
}

// timeRepeated runs fn reuseIters times per repetition and returns the
// best per-call average across reps repetitions.
func timeRepeated(reps int, fn func() error) (time.Duration, error) {
	var best time.Duration = -1
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < reuseIters; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		d := time.Since(start) / reuseIters
		if best < 0 || d < best {
			best = d
		}
	}
	return best, nil
}
