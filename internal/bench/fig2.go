package bench

import (
	"fmt"

	"spkadd/internal/core"
	"spkadd/internal/generate"
	"spkadd/internal/matrix"
)

// fig2Algorithms are the contenders of the Fig 2 winner grids. The
// paper's grid includes the MKL baselines; they never win a cell, so
// the harness omits them (their runtimes appear in Tables III-IV).
var fig2Algorithms = []core.Algorithm{
	core.TwoWayIncremental, core.TwoWayTree, core.Heap, core.SPA,
	core.Hash, core.SlidingHash,
}

// Fig2ER prints the best-performing algorithm for each (k, d) cell on
// ER matrices — the left panel of Fig 2. The paper sweeps d up to 128K
// on 4M-row matrices; the harness sweeps to 4096 on scaled rows, which
// covers the hash-to-sliding-hash crossover at the scaled cache size.
func Fig2ER(cfg Config) error {
	m := 1 << 18 / cfg.scale()
	n := 64 / cfg.scale()
	if n < 8 {
		n = 8
	}
	ks := []int{4, 8, 16, 32, 64, 128}
	ds := []int{16, 64, 256, 1024, 4096}
	fmt.Fprintf(cfg.Out, "Fig 2 (left): best algorithm per (k, d), ER, m=%d n=%d\n", m, n)
	gen := func(k, d int) []*matrix.CSC {
		return generate.ERCollection(k, generate.Opts{Rows: m, Cols: n, NNZPerCol: d, Seed: 7})
	}
	return winnerGrid(cfg, ks, ds, gen)
}

// Fig2RMAT prints the winner grid for RMAT matrices — the right panel
// of Fig 2.
func Fig2RMAT(cfg Config) error {
	m := 1 << 18 / cfg.scale()
	n := 64 / cfg.scale()
	if n < 8 {
		n = 8
	}
	ks := []int{4, 8, 16, 32, 64, 128}
	ds := []int{16, 64, 256, 1024}
	fmt.Fprintf(cfg.Out, "Fig 2 (right): best algorithm per (k, d), RMAT, m=%d n=%d\n", m, n)
	gen := func(k, d int) []*matrix.CSC {
		return generate.RMATCollection(k, generate.Opts{Rows: m, Cols: n, NNZPerCol: d, Seed: 8}, generate.Graph500)
	}
	return winnerGrid(cfg, ks, ds, gen)
}

func winnerGrid(cfg Config, ks, ds []int, gen func(k, d int) []*matrix.CSC) error {
	fmt.Fprintf(cfg.Out, "%-8s", "k\\d")
	for _, d := range ds {
		fmt.Fprintf(cfg.Out, " %-18d", d)
	}
	fmt.Fprintln(cfg.Out)
	for _, k := range ks {
		fmt.Fprintf(cfg.Out, "%-8d", k)
		for _, d := range ds {
			as := gen(k, d)
			winner, err := bestAlgorithm(cfg, as, d, k)
			if err != nil {
				return fmt.Errorf("k=%d d=%d: %w", k, d, err)
			}
			fmt.Fprintf(cfg.Out, " %-18v", winner)
		}
		fmt.Fprintln(cfg.Out)
	}
	fmt.Fprintln(cfg.Out)
	return nil
}

func bestAlgorithm(cfg Config, as []*matrix.CSC, d, k int) (core.Algorithm, error) {
	bestAlg := core.Hash
	var bestDur = -1
	for _, alg := range fig2Algorithms {
		if skipEstimate(alg, k, as[0].Cols, d) {
			continue
		}
		opt := core.Options{Algorithm: alg, Threads: cfg.Threads, CacheBytes: cfg.cacheBytes()}
		dur, _, err := timeAdd(as, opt, cfg.reps())
		if err != nil {
			return bestAlg, err
		}
		if bestDur < 0 || int(dur) < bestDur {
			bestDur = int(dur)
			bestAlg = alg
		}
	}
	return bestAlg, nil
}
