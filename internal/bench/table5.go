package bench

import (
	"fmt"

	"spkadd/internal/cachesim"
)

// Table5 reproduces the last-level cache-miss comparison of hash vs
// sliding hash on the four cases of Fig 4, using the trace-driven
// cache simulator in place of Cachegrind. The modelled cache is scaled
// with the workloads (the paper's 32MB LLC pairs with 4M-row matrices;
// the harness's default 1/16-scale workloads pair with a 2MB modelled
// LLC) so the spill/fit boundary lands on the same cases: (b) and (c)
// spill and benefit from sliding, (a) and (d) fit and show no
// difference.
func Table5(cfg Config) error {
	modelCache := int64(2<<20) / int64(cfg.scale())
	modelThreads := 8
	fmt.Fprintf(cfg.Out, "Table V: simulated LL cache misses (modelled LLC=%dKB shared by %d threads)\n",
		modelCache>>10, modelThreads)
	fmt.Fprintf(cfg.Out, "%-44s %14s %14s\n", "Case", "Sliding Hash", "Hash")
	for _, c := range fig4Cases(cfg) {
		as := c.gen(cfg)
		base := cachesim.TraceConfig{
			CacheBytes: modelCache,
			Threads:    modelThreads,
		}
		plain := cachesim.TraceSpKAdd(as, base)
		slidingCfg := base
		slidingCfg.Sliding = true
		sliding := cachesim.TraceSpKAdd(as, slidingCfg)
		fmt.Fprintf(cfg.Out, "%-44s %14d %14d\n",
			c.label, sliding.TotalMisses(), plain.TotalMisses())
	}
	fmt.Fprintln(cfg.Out)
	return nil
}
