package bench

import (
	"fmt"

	"spkadd/internal/core"
	"spkadd/internal/generate"
	"spkadd/internal/matrix"
)

// fig4Case is one panel of Fig 4: a workload swept over hash-table
// size caps.
type fig4Case struct {
	label string
	gen   func(cfg Config) []*matrix.CSC
}

func fig4Cases(cfg Config) []fig4Case {
	m := 1 << 18 / cfg.scale()
	erSmall := func(cfg Config) []*matrix.CSC {
		return generate.ERCollection(128, generate.Opts{Rows: m, Cols: 32, NNZPerCol: 64, Seed: 21})
	}
	erBig := func(cfg Config) []*matrix.CSC {
		return generate.ERCollection(128, generate.Opts{Rows: m, Cols: 16, NNZPerCol: 1024, Seed: 22})
	}
	rmat := func(cfg Config) []*matrix.CSC {
		return generate.RMATCollection(128, generate.Opts{Rows: m, Cols: 32, NNZPerCol: 512, Seed: 23}, generate.Graph500)
	}
	eukarya := func(cfg Config) []*matrix.CSC {
		return generate.ClusteredCollection(64, generate.Opts{Rows: m, Cols: 32, NNZPerCol: 240, Seed: 24}, 22)
	}
	return []fig4Case{
		{label: "(a) ER d=64 k=128 cf~1", gen: erSmall},
		{label: "(b) ER d=1024 k=128 cf~1.1", gen: erBig},
		{label: "(c) RMAT d=512 k=128 cf~1.25", gen: rmat},
		{label: "(d) Eukarya-like d=240 k=64 cf~22", gen: eukarya},
	}
}

// Fig4 reproduces the hash-table-size sweeps: for each case, the
// sliding-hash algorithm runs with table caps from 2^7 to the size
// that needs no partitioning, reporting symbolic, computation
// (numeric) and total times. The last row of each panel is the
// unpartitioned configuration, the paper's two-phase hash, as in the
// paper.
func Fig4(cfg Config) error {
	for _, c := range fig4Cases(cfg) {
		as := c.gen(cfg)
		maxColIn := 0
		for j := 0; j < as[0].Cols; j++ {
			in := 0
			for _, a := range as {
				in += a.ColNNZ(j)
			}
			if in > maxColIn {
				maxColIn = in
			}
		}
		fmt.Fprintf(cfg.Out, "Fig 4 %s: time (s) vs sliding hash table size (max col input nnz = %d)\n", c.label, maxColIn)
		fmt.Fprintf(cfg.Out, "%-12s %10s %12s %10s %7s\n", "table size", "symbolic", "computation", "total", "parts")
		for size := 128; ; size *= 4 {
			noPartition := size >= maxColIn
			opt := core.Options{
				Algorithm:       core.SlidingHash,
				Threads:         cfg.Threads,
				MaxTableEntries: size,
			}
			dur, pt, err := timeAdd(as, opt, cfg.reps())
			if err != nil {
				return fmt.Errorf("%s size=%d: %w", c.label, size, err)
			}
			parts := (maxColIn + size - 1) / size
			fmt.Fprintf(cfg.Out, "%-12d %10s %12s %10s %7d\n",
				size, fmtDur(pt.Symbolic), fmtDur(pt.Numeric), fmtDur(dur), parts)
			if noPartition {
				break
			}
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}
