package bench

import (
	"fmt"
	"runtime"

	"spkadd/internal/core"
	"spkadd/internal/generate"
	"spkadd/internal/matrix"
)

// fig3Algorithms mirrors the series of Fig 3 (MKL Tree replaced by the
// map-based tree baseline).
var fig3Algorithms = []core.Algorithm{
	core.Hash, core.SlidingHash, core.TwoWayTree, core.MapTree, core.SPA, core.Heap,
}

// Fig3 reproduces the strong-scaling study: runtime versus thread
// count for (a) ER, (b) RMAT, and (c) SpGEMM-intermediate-like
// (Eukarya) collections. Thread counts sweep 1..GOMAXPROCS in powers
// of two; on a single-core host the sweep still validates that the
// parallel drivers are correct at every width, but wall-clock speedup
// cannot appear (EXPERIMENTS.md discusses this).
func Fig3(cfg Config) error {
	maxT := runtime.GOMAXPROCS(0)
	threads := []int{1}
	for t := 2; t <= maxT; t *= 2 {
		threads = append(threads, t)
	}
	if last := threads[len(threads)-1]; last != maxT {
		threads = append(threads, maxT)
	}

	m := 1 << 18 / cfg.scale()
	type panel struct {
		name string
		gen  func() []*matrix.CSC
	}
	panels := []panel{
		{
			name: fmt.Sprintf("(a) ER, m=%d, d=256, k=32", m),
			gen: func() []*matrix.CSC {
				return generate.ERCollection(32, generate.Opts{Rows: m, Cols: 64 / cfg.scale(), NNZPerCol: 256, Seed: 11})
			},
		},
		{
			name: fmt.Sprintf("(b) RMAT, m=%d, d=256, k=32", m),
			gen: func() []*matrix.CSC {
				return generate.RMATCollection(32, generate.Opts{Rows: m, Cols: 64 / cfg.scale(), NNZPerCol: 256, Seed: 12}, generate.Graph500)
			},
		},
		{
			name: fmt.Sprintf("(c) SpGEMM intermediates (Eukarya-like), m=%d, d=240, k=64, cf~22", m),
			gen: func() []*matrix.CSC {
				return generate.ClusteredCollection(64, generate.Opts{Rows: m, Cols: 32 / cfg.scale(), NNZPerCol: 240, Seed: 13}, 22)
			},
		},
	}

	for _, p := range panels {
		fmt.Fprintf(cfg.Out, "Fig 3 %s: runtime (s) vs threads\n", p.name)
		as := p.gen()
		fmt.Fprintf(cfg.Out, "%-20s", "Algorithm")
		for _, t := range threads {
			fmt.Fprintf(cfg.Out, " %10s", fmt.Sprintf("T=%d", t))
		}
		fmt.Fprintln(cfg.Out)
		for _, alg := range fig3Algorithms {
			fmt.Fprintf(cfg.Out, "%-20v", alg)
			for _, t := range threads {
				opt := core.Options{Algorithm: alg, Threads: t, CacheBytes: cfg.cacheBytes()}
				dur, _, err := timeAdd(as, opt, cfg.reps())
				if err != nil {
					return fmt.Errorf("%s %v T=%d: %w", p.name, alg, t, err)
				}
				fmt.Fprintf(cfg.Out, " %10s", fmtDur(dur))
			}
			fmt.Fprintln(cfg.Out)
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}
