package bench

import (
	"fmt"
	"time"

	"spkadd/internal/core"
	"spkadd/internal/generate"
	"spkadd/internal/summa"
)

// Fig6 reproduces the distributed-SpGEMM experiment: sparse SUMMA on a
// simulated process grid, comparing heap SpKAdd (the previous
// CombBLAS implementation), hash SpKAdd on sorted intermediates, and
// hash SpKAdd on unsorted intermediates (which also lets the local
// multiplies skip sorting). The paper runs Metaclust50 on 16384
// processes and Isolates on 4096; the harness uses protein-similarity-
// like synthetic operands on 16x16 and 8x8 grids.
func Fig6(cfg Config) error {
	type workload struct {
		label   string
		n       int
		cluster int
		deg     int
		grid    int
	}
	workloads := []workload{
		{"(a) Metaclust50-like, 256 processes (16x16)", 6000 / cfg.scale(), 256, 192, 16},
		{"(b) Isolates-like, 64 processes (8x8)", 8000 / cfg.scale(), 128, 128, 8},
	}
	type variant struct {
		name string
		alg  core.Algorithm
		sort bool
	}
	variants := []variant{
		{"Heap", core.Heap, true},
		{"Sorted Hash", core.Hash, true},
		{"Unsorted Hash", core.Hash, false},
	}
	for _, w := range workloads {
		a := generate.ProteinLike(w.n, w.cluster, w.deg, 31)
		b := generate.ProteinLike(w.n, w.cluster, w.deg, 32)
		fmt.Fprintf(cfg.Out, "Fig 6 %s: n=%d deg=%d, computation time (s)\n", w.label, w.n, w.deg)
		fmt.Fprintf(cfg.Out, "%-16s %16s %12s %12s\n", "Variant", "Local Multiply", "SpKAdd", "Total")
		for _, v := range variants {
			var best summa.Report
			var bestTotal time.Duration = -1
			for r := 0; r < cfg.reps(); r++ {
				_, rep, err := summa.Run(a, b, summa.Config{
					Grid: w.grid, SpKAdd: v.alg, SortIntermediates: v.sort,
					Threads: cfg.Threads,
				})
				if err != nil {
					return fmt.Errorf("%s %s: %w", w.label, v.name, err)
				}
				total := rep.LocalMultiplySum + rep.SpKAddSum
				if bestTotal < 0 || total < bestTotal {
					bestTotal, best = total, rep
				}
			}
			fmt.Fprintf(cfg.Out, "%-16s %16s %12s %12s\n", v.name,
				fmtDur(best.LocalMultiplySum), fmtDur(best.SpKAddSum), fmtDur(bestTotal))
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}
