package core

import (
	"math/bits"

	"spkadd/internal/matrix"
)

// The row sorter is what every sorted emit calls (Algorithm 5, line
// 15): Hash's single pass and Mul (emitStaged), SlidingHash's tables
// (emitHashTab and each part of slidingHashAddCol) and the SPA. After
// accumulation a column's rows are distinct integers in a known
// range, so most columns need no comparisons: the sorter picks its
// method from the column's length n and row span (max − min + 1).
// Distinct keys have one ascending order, so both methods write the
// same column and the choice never shows in the output.
//
// bitmapSpanPerEntry is c of the bitmap rule span ≤ c·n. The bitmap
// method costs a few passes over the n entries plus two over the
// span/64 bitmap words, so it wins while the span stays within a
// small multiple of n; BenchmarkRowSort sets c (DESIGN.md §4).
const bitmapSpanPerEntry = 64

// rowSortMethod names the sorter's two methods.
type rowSortMethod uint8

const (
	sortQuick rowSortMethod = iota
	sortBitmap
)

// pickRowSort returns the method for a column of n distinct rows
// spanning span rows.
func pickRowSort(n int, span uint64) rowSortMethod {
	if span <= bitmapSpanPerEntry*uint64(n) {
		return sortBitmap
	}
	return sortQuick
}

// rowSorterOf is a worker's row sorter. Its scratch grows on demand;
// reserveWorkers reserves it for sorted multi-worker calls, so a
// column sorts without allocating on whichever worker it lands.
type rowSorterOf[T matrix.Number] struct {
	seen []uint64       // bitmap over the span
	rank []uint32       // marks in seen's earlier words
	rows []matrix.Index // the column in sorted order
	vals []T
}

// sort sorts rows ascending and moves each value with its row. The
// rows must be distinct.
func (s *rowSorterOf[T]) sort(rows []matrix.Index, vals []T) {
	if len(rows) < 2 {
		return
	}
	lo, hi := rows[0], rows[0]
	for _, r := range rows[1:] {
		lo, hi = min(lo, r), max(hi, r)
	}
	s.sortBy(pickRowSort(len(rows), uint64(hi-lo)+1), rows, vals, lo, hi)
}

// sortBy sorts with method m; lo and hi are the column's smallest and
// largest row.
func (s *rowSorterOf[T]) sortBy(m rowSortMethod, rows []matrix.Index, vals []T, lo, hi matrix.Index) {
	if m == sortBitmap {
		words := int(hi-lo)>>6 + 1
		s.seen, s.rank = grow(s.seen, words), grow(s.rank, words)
		s.rows, s.vals = grow(s.rows, len(rows)), grow(s.vals, len(rows))
		bitmapSortPairs(rows, vals, lo, s.seen, s.rank, s.rows, s.vals)
		return
	}
	quickSortPairs(rows, vals, 0, len(rows)-1)
}

// reserve grows the scratch to sort any column of up to n distinct
// rows out of [0, rows) without allocating: a column's worth of rows
// and values, and two arrays of one entry per 64 rows of a span of at
// most min(rows, c·n), so of at most n entries each.
func (s *rowSorterOf[T]) reserve(n, rows int) {
	n = min(n, rows)
	words := (min(rows, bitmapSpanPerEntry*n) + 63) >> 6
	s.seen, s.rank = grow(s.seen, words), grow(s.rank, words)
	s.rows, s.vals = grow(s.rows, n), grow(s.vals, n)
}

// bitmapSortPairs is the bitmap method. It marks each row's offset
// from lo in seen and counts into rank the marks before each word, so
// an entry's place in the sorted column is its word's rank plus the
// marks below it in the word. It puts each entry at its place in
// tmpRows and tmpVals and copies them back. seen and rank need an
// entry for every 64 rows of the span from lo, tmpRows and tmpVals
// one per entry: the scratch grows with n, not with the span times
// the element size.
//
//spkadd:noalloc bitmap method of the row sorter
func bitmapSortPairs[T matrix.Number](rows []matrix.Index, vals []T, lo matrix.Index, seen []uint64, rank []uint32, tmpRows []matrix.Index, tmpVals []T) {
	clear(seen)
	for _, r := range rows {
		o := uint32(r - lo)
		seen[o>>6] |= 1 << (o & 63)
	}
	marks := uint32(0)
	for w, word := range seen {
		rank[w] = marks
		marks += uint32(bits.OnesCount64(word))
	}
	tmpRows, tmpVals = tmpRows[:len(rows)], tmpVals[:len(rows)]
	for i, r := range rows {
		o := uint32(r - lo)
		k := rank[o>>6] + uint32(bits.OnesCount64(seen[o>>6]&(1<<(o&63)-1)))
		tmpRows[k], tmpVals[k] = r, vals[i]
	}
	copy(rows, tmpRows)
	copy(vals, tmpVals)
}

// quickSortPairs is the quicksort method, for short columns in wide
// spans: median-of-three quicksort with an insertion-sort tail.
// Recursion is through a top-level function rather than a
// self-referencing closure, which would put a funcval on the heap per
// call.
func quickSortPairs[T matrix.Number](rows []matrix.Index, vals []T, lo, hi int) {
	for hi-lo > 12 {
		p := partitionPairs(rows, vals, lo, hi)
		if p-lo < hi-p {
			quickSortPairs(rows, vals, lo, p)
			lo = p + 1
		} else {
			quickSortPairs(rows, vals, p+1, hi)
			hi = p
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && rows[j] < rows[j-1]; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
}

func partitionPairs[T matrix.Number](rows []matrix.Index, vals []T, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if rows[mid] < rows[lo] {
		swapPair(rows, vals, mid, lo)
	}
	if rows[hi] < rows[lo] {
		swapPair(rows, vals, hi, lo)
	}
	if rows[hi] < rows[mid] {
		swapPair(rows, vals, hi, mid)
	}
	pivot := rows[mid]
	swapPair(rows, vals, mid, hi-1)
	i, j := lo, hi-1
	for {
		for i++; rows[i] < pivot; i++ {
		}
		for j--; rows[j] > pivot; j-- {
		}
		if i >= j {
			break
		}
		swapPair(rows, vals, i, j)
	}
	swapPair(rows, vals, i, hi-1)
	return i
}

func swapPair[T matrix.Number](rows []matrix.Index, vals []T, i, j int) {
	rows[i], rows[j] = rows[j], rows[i]
	vals[i], vals[j] = vals[j], vals[i]
}
