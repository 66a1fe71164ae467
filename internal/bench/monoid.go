package bench

import (
	"fmt"
	"time"

	"spkadd/internal/core"
	"spkadd/internal/ops"
)

// Monoid measures the generic combine path against the specialized
// Plus fast path: every built-in monoid across the k-way algorithms
// on one medium workload, reported as runtime with the overhead factor
// relative to the same algorithm under Plus. Plus itself is the
// control row — it must be within noise of the pre-monoid kernels,
// because the fast path is the same inlined "+=" loop, selected once
// per call.
func Monoid(cfg Config) error {
	m := 1 << 17 / cfg.scale()
	n := 48 / cfg.scale()
	if n < 8 {
		n = 8
	}
	c := benchCase{"ER", 16, 128}
	as := benchCollection(c, m, n)
	algs := []core.Algorithm{core.Hash, core.SPA, core.Heap}
	fmt.Fprintf(cfg.Out, "Monoid overhead: SpKAdd runtime (s), %s k=%d d=%d, m=%d n=%d (vs Plus per cell)\n",
		c.pattern, c.k, c.d, m, n)
	fmt.Fprintf(cfg.Out, "%-8s %-6s %16s\n", "Monoid", "Alg", "runtime")
	plus := make(map[core.Algorithm]time.Duration)
	for _, mon := range ops.Builtins {
		for _, alg := range algs {
			opt := core.Options{
				Algorithm: alg, Monoid: mon,
				SortedOutput: true, Threads: cfg.Threads, CacheBytes: cfg.cacheBytes(),
			}
			dur, _, err := timeAdd(as, opt, cfg.reps())
			if err != nil {
				return fmt.Errorf("monoid %s %v: %w", mon.Name, alg, err)
			}
			if mon == ops.Plus {
				plus[alg] = dur
				fmt.Fprintf(cfg.Out, "%-8s %-6v %16s\n", mon.Name, alg, fmtDur(dur))
			} else {
				fmt.Fprintf(cfg.Out, "%-8s %-6v %9s (%4.2fx)\n", mon.Name, alg, fmtDur(dur), float64(dur)/float64(plus[alg]))
			}
		}
	}
	fmt.Fprintln(cfg.Out)
	return nil
}
