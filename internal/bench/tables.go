package bench

import (
	"fmt"

	"spkadd/internal/core"
	"spkadd/internal/generate"
	"spkadd/internal/matrix"
)

// Table3 reproduces Table III: runtimes of all algorithms on ER
// collections over the (d, k) grid. The paper uses 4M x 1K matrices
// with d in {16, 1024, 8192}; the harness default scales rows and
// columns down (identical k, reduced d ceiling) so the largest cell
// stays within laptop memory.
func Table3(cfg Config) error {
	m := 1 << 18 / cfg.scale()
	n := 128 / cfg.scale()
	if n < 8 {
		n = 8
	}
	ds := []int{16, 1024, 4096}
	ks := []int{4, 32, 128}
	fmt.Fprintf(cfg.Out, "Table III: SpKAdd runtime (s), ER matrices, m=%d n=%d (paper: 4M x 1K, d up to 8192)\n", m, n)
	gen := func(k, d int) []*matrix.CSC {
		return generate.ERCollection(k, generate.Opts{Rows: m, Cols: n, NNZPerCol: d, Seed: 42})
	}
	return runtimeTable(cfg, ds, ks, gen)
}

// Table4 reproduces Table IV: runtimes on RMAT collections built with
// the paper's column-split construction. Paper d values {16, 64, 512}.
func Table4(cfg Config) error {
	m := 1 << 18 / cfg.scale()
	n := 128 / cfg.scale()
	if n < 8 {
		n = 8
	}
	ds := []int{16, 64, 512}
	ks := []int{4, 32, 128}
	fmt.Fprintf(cfg.Out, "Table IV: SpKAdd runtime (s), RMAT matrices, m=%d n=%d (paper: 4M rows)\n", m, n)
	gen := func(k, d int) []*matrix.CSC {
		return generate.RMATCollection(k, generate.Opts{Rows: m, Cols: n, NNZPerCol: d, Seed: 43}, generate.Graph500)
	}
	return runtimeTable(cfg, ds, ks, gen)
}

// runtimeTable prints the Tables III/IV layout: one row per algorithm,
// one column per (d, k) pair, minimum of cfg.Reps runs, "-" for cells
// skipped by the work estimator (the paper's "could not run").
func runtimeTable(cfg Config, ds, ks []int, gen func(k, d int) []*matrix.CSC) error {
	type cellKey struct{ d, k int }
	results := map[cellKey]map[core.Algorithm]string{}

	// Header.
	fmt.Fprintf(cfg.Out, "%-20s", "Algorithm")
	for _, d := range ds {
		for _, k := range ks {
			fmt.Fprintf(cfg.Out, " %12s", fmt.Sprintf("d=%d,k=%d", d, k))
		}
	}
	fmt.Fprintln(cfg.Out)

	// Generate each collection once; iterate algorithms inside.
	for _, d := range ds {
		for _, k := range ks {
			as := gen(k, d)
			cell := map[core.Algorithm]string{}
			for _, alg := range core.Algorithms {
				if skipEstimate(alg, k, as[0].Cols, d) {
					cell[alg] = "-"
					continue
				}
				opt := core.Options{Algorithm: alg, Threads: cfg.Threads, CacheBytes: cfg.cacheBytes()}
				dur, _, err := timeAdd(as, opt, cfg.reps())
				if err != nil {
					return fmt.Errorf("d=%d k=%d %v: %w", d, k, alg, err)
				}
				cell[alg] = fmtDur(dur)
			}
			results[cellKey{d, k}] = cell
		}
	}

	for _, alg := range core.Algorithms {
		fmt.Fprintf(cfg.Out, "%-20v", alg)
		for _, d := range ds {
			for _, k := range ks {
				fmt.Fprintf(cfg.Out, " %12s", results[cellKey{d, k}][alg])
			}
		}
		fmt.Fprintln(cfg.Out)
	}
	fmt.Fprintln(cfg.Out)
	return nil
}
