// Command spkadd-bench regenerates the paper's tables and figures.
//
//	spkadd-bench -exp table3                    # one experiment
//	spkadd-bench -exp all -scale 2              # everything, half-size workloads
//	spkadd-bench -baseline BENCH_baseline.json  # write the perf baseline
//
// Experiments: fig2er, fig2rmat, table3, table4, fig3, fig4, table5,
// fig6 (the paper artifacts, all run by "all"), plus reuse (one-shot
// Add vs a reused Adder workspace across k and d), pool (sharded-pool throughput over
// a producer-count × shard-count grid), monoid (generic combine
// overhead: every built-in monoid vs the Plus fast path), tune,
// ablation, and dtype (the value-type A/B: identical additions over
// float64 and float32 values, interleaved, on cells sized so the
// accumulator straddles a per-core cache at 8-byte values but fits at
// 4). See EXPERIMENTS.md for the workload mapping and expected shapes.
//
// With -baseline, the harness instead measures a small fixed grid of
// shapes across the k-way algorithms — runtime, the engine each ran,
// allocs/op and bytes/op — and writes machine-readable JSON to the given path;
// the committed BENCH_baseline.json gives future perf work a
// trajectory to compare against.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"spkadd/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spkadd-bench: ")
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(bench.Experiments, ", ")+", reuse, pool, monoid, tune, ablation, dtype, or all")
	reps := flag.Int("reps", 1, "timed repetitions per cell (minimum reported)")
	threads := flag.Int("threads", 0, "worker threads (0 = GOMAXPROCS)")
	scale := flag.Int("scale", 1, "divide workload sizes by this factor")
	cacheMB := flag.Int64("cache-mb", 32, "modelled last-level cache in MB")
	baseline := flag.String("baseline", "", "write the JSON perf baseline to this path and exit")
	flag.Parse()

	cfg := bench.Config{
		Out:        os.Stdout,
		Reps:       *reps,
		Threads:    *threads,
		Scale:      *scale,
		CacheBytes: *cacheMB << 20,
	}
	if *baseline != "" {
		// Measure into a temp file and rename on success, so a failed
		// or interrupted run never clobbers an existing baseline.
		f, err := os.CreateTemp(filepath.Dir(*baseline), ".baseline-*")
		if err != nil {
			log.Fatal(err)
		}
		if err := bench.Baseline(cfg, f); err != nil {
			f.Close()
			os.Remove(f.Name())
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			os.Remove(f.Name())
			log.Fatal(err)
		}
		// CreateTemp makes the file 0600; restore conventional perms.
		if err := os.Chmod(f.Name(), 0o644); err != nil {
			os.Remove(f.Name())
			log.Fatal(err)
		}
		if err := os.Rename(f.Name(), *baseline); err != nil {
			os.Remove(f.Name())
			log.Fatal(err)
		}
		fmt.Printf("spkadd-bench: wrote baseline to %s\n", *baseline)
		return
	}
	fmt.Printf("spkadd-bench: GOMAXPROCS=%d, reps=%d, scale=1/%d, cache=%dMB\n\n",
		runtime.GOMAXPROCS(0), *reps, *scale, *cacheMB)
	if err := bench.Run(*exp, cfg); err != nil {
		log.Fatal(err)
	}
}
