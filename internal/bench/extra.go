package bench

import (
	"fmt"

	"spkadd/internal/core"
	"spkadd/internal/generate"
)

// Tune finds the host's best sliding-hash table size for a
// representative dense workload — the practical takeaway of Fig 4
// ("the optimum hash table sizes are related to the cache sizes").
// It sweeps power-of-four caps and reports the fastest.
func Tune(cfg Config) error {
	m := 1 << 18 / cfg.scale()
	as := generate.ERCollection(64, generate.Opts{Rows: m, Cols: 16, NNZPerCol: 1024, Seed: 51})
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
	fmt.Fprintf(cfg.Out, "Tuner: sliding-hash table size sweep on this host (ER d=1024 k=64, m=%d)\n", m)
	bestSize, bestDur := 0, int64(-1)
	for size := 128; size/4 < maxColIn; size *= 4 {
		opt := core.Options{Algorithm: core.SlidingHash, Threads: cfg.Threads, MaxTableEntries: size}
		dur, _, err := timeAdd(as, opt, cfg.reps()+2)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "  size %-8d %s s\n", size, fmtDur(dur))
		if bestDur < 0 || int64(dur) < bestDur {
			bestDur, bestSize = int64(dur), size
		}
	}
	fmt.Fprintf(cfg.Out, "best table size on this host: %d entries (~%d KB numeric tables)\n\n",
		bestSize, bestSize*core.BytesPerAddEntry/1024)
	return nil
}

// Ablation prints the design-choice comparison DESIGN.md calls out:
// the cost of sorted output for the hash algorithm.
func Ablation(cfg Config) error {
	m := 1 << 17 / cfg.scale()
	er := generate.ERCollection(32, generate.Opts{Rows: m, Cols: 32, NNZPerCol: 256, Seed: 52})

	fmt.Fprintln(cfg.Out, "Ablation: sorted vs unsorted hash output (ER d=256 k=32)")
	for _, sorted := range []bool{false, true} {
		dur, _, err := timeAdd(er, core.Options{Algorithm: core.Hash, Threads: cfg.Threads, SortedOutput: sorted}, cfg.reps()+2)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "  sorted=%-5v %s s\n", sorted, fmtDur(dur))
	}
	fmt.Fprintln(cfg.Out)
	return nil
}
