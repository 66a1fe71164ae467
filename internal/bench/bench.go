// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§IV): Fig 2 best-algorithm
// grids, Tables III-IV runtime tables, Fig 3 strong scaling, Fig 4
// hash-table-size sweeps, Table V cache-miss counts, and Fig 6 SpKAdd
// inside distributed SpGEMM.
//
// Workloads are scaled-down versions of the paper's (the paper uses 4M-
// row matrices on 48-core servers; this harness defaults to sizes that
// finish on a laptop core) with identical k and d grids where feasible.
// EXPERIMENTS.md records the mapping and the measured-vs-paper shapes.
package bench

import (
	"fmt"
	"io"
	"time"

	"spkadd/internal/core"
	"spkadd/internal/matrix"
)

// Config controls harness execution.
type Config struct {
	// Out receives the formatted tables.
	Out io.Writer
	// Reps is the number of timed repetitions per cell (min is
	// reported); <1 means 1.
	Reps int
	// Threads is the worker count for non-scaling experiments;
	// <1 means GOMAXPROCS.
	Threads int
	// Scale divides the default workload sizes: 1 = harness default
	// (already scaled from the paper), 2 = half that, etc. <1 means 1.
	Scale int
	// CacheBytes is the last-level cache budget M the experiments pass
	// to SlidingHash and Auto; <=0 means 32MB (Skylake-like). Fig 4's
	// cells cap their tables instead, and Table V models its own cache.
	CacheBytes int64
}

func (c Config) reps() int {
	if c.Reps < 1 {
		return 1
	}
	return c.Reps
}

func (c Config) scale() int {
	if c.Scale < 1 {
		return 1
	}
	return c.Scale
}

func (c Config) cacheBytes() int64 {
	if c.CacheBytes <= 0 {
		return 32 << 20
	}
	return c.CacheBytes
}

// timeAdd runs one SpKAdd configuration reps times and returns the
// minimum total duration and the phase split of the fastest run.
func timeAdd(as []*matrix.CSC, opt core.Options, reps int) (time.Duration, core.PhaseTimings, error) {
	var best time.Duration = -1
	var bestPT core.PhaseTimings
	for r := 0; r < reps; r++ {
		start := time.Now()
		_, pt, err := core.AddTimed(as, opt)
		if err != nil {
			return 0, bestPT, err
		}
		d := time.Since(start)
		if best < 0 || d < best {
			best, bestPT = d, pt
		}
	}
	return best, bestPT, nil
}

// skipEstimate guards against pathological cells (the paper's own
// tables contain "could not run" entries): it estimates the merged-
// entry work of an algorithm — with an 8x constant-factor penalty for
// the map-based baselines — and returns true when the cell would run
// far past the harness time budget.
func skipEstimate(alg core.Algorithm, k, n, d int) bool {
	nd := float64(n) * float64(d)
	var work float64
	switch alg {
	case core.TwoWayIncremental:
		work = float64(k) * float64(k) / 2 * nd
	case core.MapIncremental:
		work = float64(k) * float64(k) / 2 * nd * 8 // map constant
	case core.MapTree:
		work = float64(k) * nd * 8 * log2(k)
	default:
		return false
	}
	return work > 4e9
}

func log2(k int) float64 {
	l := 0.0
	for k > 1 {
		k /= 2
		l++
	}
	if l == 0 {
		return 1
	}
	return l
}

// fmtDur renders a duration in seconds to four significant digits, so
// sub-millisecond cells keep the precision of second-long ones.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.4g", d.Seconds())
}
