// Package sched provides the column scheduling of the paper's
// parallel SpKAdd (§III-A) as regions of a resident Executor. Every
// region runs Weighted: contiguous ranges partitioned by per-column
// nonzero counts (the paper balances the symbolic phase by input nnz
// per column and the addition phase by output nnz per column), with
// idle workers stealing from the most-loaded peer; all-zero weights
// give equal blocks. This file holds the partitioning arithmetic.
//
// Every region invokes the body with a worker id so callers can keep
// per-worker (thread-private) data structures, and never runs the body
// for the same index twice.
package sched

import "runtime"

// Threads normalizes a requested thread count: values < 1 mean
// GOMAXPROCS.
func Threads(t int) int {
	if t < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return t
}

// Span returns the w-th of t near-equal subranges of [0, n), the
// same arithmetic as the paper's sliding-hash row partitioning
// (r1 = i*m/parts, r2 = (i+1)*m/parts).
func Span(n, t, w int) (lo, hi int) {
	return w * n / t, (w + 1) * n / t
}

// PartitionByWeightInto returns t+1 boundaries over [0, len(weights))
// such that each part carries roughly total/t weight. Boundaries are
// found by binary search on the prefix-sum array, mirroring the
// paper's binary-search row partitioning. When every weight is zero
// (or negative) the prefix sum carries no balance information and the
// boundaries fall back to the Span arithmetic rather than every binary
// search landing on index 0, which would leave the last part owning
// all of [0, n).
//
// prefix and bounds are caller-provided scratch, reused when large
// enough (pass the returned slices back in to make repeated
// partitioning allocation-free) and reallocated otherwise. The
// returned bounds slice has length t+1; the returned prefix slice
// holds the weight prefix sums the boundaries were derived from.
func PartitionByWeightInto(weights []int64, t int, prefix []int64, bounds []int) ([]int64, []int) {
	n := len(weights)
	prefix = grow(prefix, n+1)
	bounds = grow(bounds, t+1)
	prefix[0] = 0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		prefix[i+1] = prefix[i] + w
	}
	total := prefix[n]
	bounds[0] = 0
	bounds[t] = n
	if total == 0 {
		for w := 1; w < t; w++ {
			bounds[w], _ = Span(n, t, w)
		}
		return prefix, bounds
	}
	for w := 1; w < t; w++ {
		target := total * int64(w) / int64(t)
		b := searchPrefix(prefix[:n+1], target)
		if b < bounds[w-1] {
			b = bounds[w-1]
		}
		bounds[w] = b
	}
	return prefix, bounds
}

// grow returns s with length n, reusing its storage when large enough.
// Contents are unspecified; callers overwrite what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// searchPrefix returns the smallest i with prefix[i] >= target.
func searchPrefix(prefix []int64, target int64) int {
	lo, hi := 0, len(prefix)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if prefix[mid] >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
