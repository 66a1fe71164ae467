// Package hashtab implements the open-addressing hash tables at the
// heart of the paper's HashSpKAdd (Algorithm 5) and its symbolic phase
// (Algorithm 6): power-of-two sized tables with the multiplicative
// masking hash HASH(r) = (a*r) & (2^q - 1) and linear probing.
//
// One type serves both phases: TableOf stores (row, value) pairs and
// accumulates values on duplicate insert (the numeric addition phase),
// and its Insert counts distinct keys while writing only the key and
// the stamp (the symbolic phase, 4 bytes of index per entry whatever
// the value type).
//
// The value axis is generic over matrix.Number. The "+" fast path is
// the free function Accum, constrained to matrix.Arith so its `+=` is
// a single machine instruction per instantiation (a method cannot
// carry a tighter constraint than its receiver type); the monoid-
// generic path is the AddWith method, available for every T including
// bool.
//
// A worker reuses one table across every column it processes, so Reset
// must not cost O(capacity): slots carry an epoch stamp and Reset just
// bumps the epoch. Grow additionally narrows the probe mask to the
// size the current column needs, so a huge column early on does not
// condemn every later small column to probing (and wiping) a huge
// table — that would silently destroy the cache behaviour the sliding
// hash algorithm is built around.
//
// Emitting a column must not cost O(capacity) either: Accum and
// AddWith record each occupied slot in insertion order, so
// AppendEntries gathers its Len entries without scanning the window,
// and unsorted output comes out in first-insertion order whatever
// window the caller sized.
//
// Tables are not safe for concurrent use; the parallel SpKAdd driver
// gives each worker its own table, exactly as the paper's
// thread-private data structures (§III-A).
package hashtab

import "spkadd/internal/matrix"

// hashMul is the multiplicative constant `a` of the paper's
// HASH(r) = (a*r) & (2^q - 1). Knuth's golden-ratio prime spreads
// consecutive row indices well under the power-of-two mask.
const hashMul uint32 = 2654435761

// SizeFor returns the table capacity for n keys: the smallest power
// of two above 2n. The paper sizes tables as "a power of two greater
// than nnz"; the factor 2 caps the load at one half, so linear
// probing stays O(1) in expectation.
func SizeFor(n int) int {
	p := 1
	for p <= 2*n {
		p <<= 1
	}
	return p
}

// SlidingParts is the partition count of the sliding hash algorithm
// (Algorithms 7-8): ceil(nnz*b*T/M) row ranges, so that each of T
// threads' tables of b-byte entries fits its share of an M-byte cache,
// or ceil(nnz/maxEntries) when an explicit table cap is set (the Fig 4
// sweep knob). The kernels and the cache simulator share it.
func SlidingParts(nnz int, bytesPerEntry int64, threads int, cacheBytes int64, maxEntries int) int {
	if nnz <= 0 {
		return 1
	}
	var parts int
	if maxEntries > 0 {
		parts = (nnz + maxEntries - 1) / maxEntries
	} else {
		need := int64(nnz) * bytesPerEntry * int64(threads)
		parts = int((need + cacheBytes - 1) / cacheBytes)
	}
	return max(parts, 1)
}

// TableOf is the hash table of both phases: it holds (row, value)
// entries of element type T for the numeric phase, and its Insert
// counts keys for the symbolic phase. The zero value is an empty table
// that works once Grow has been called.
type TableOf[T matrix.Number] struct {
	keys   []matrix.Index
	vals   []T
	stamps []uint32
	slots  []uint32 // slots[:n]: occupied slot indices, insertion order
	epoch  uint32
	mask   uint32 // active window size - 1 (window may be smaller than storage)
	n      int

	// Probes counts total probe steps, for the work-complexity tests
	// backing Table I. It survives Reset/Grow so a worker can
	// accumulate across the many columns it processes; callers zero it
	// explicitly when flushing.
	Probes int64
}

// Cap returns the active window size (a power of two).
func (t *TableOf[T]) Cap() int { return int(t.mask) + 1 }

// Len returns the number of distinct keys stored.
func (t *TableOf[T]) Len() int { return t.n }

// Reset clears the table for reuse in O(1) by bumping the epoch.
func (t *TableOf[T]) Reset() {
	t.n = 0
	t.epoch++
	if t.epoch == 0 { // stamp wraparound: restore the invariant
		for i := range t.stamps {
			t.stamps[i] = 0
		}
		t.epoch = 1
	}
}

// Grow clears the table and sets the active probe window to hold at
// least n keys, enlarging storage only when needed.
func (t *TableOf[T]) Grow(n int) {
	size := SizeFor(n)
	if size > len(t.keys) {
		t.keys = make([]matrix.Index, size)
		t.vals = make([]T, size)
		t.stamps = make([]uint32, size)
		t.slots = make([]uint32, size)
		t.epoch = 0
	}
	t.mask = uint32(size - 1)
	t.Reset()
}

// Accum inserts (r, v) into t, accumulating v with += if r is already
// present (lines 5-12 of Algorithm 5). It is the "+" fast path of
// every hash kernel, a free function constrained to the arithmetic
// types so each instantiation compiles to a branch-once inlined probe
// loop — no dispatch per entry, no boolean case to branch around.
//
//spkadd:noalloc per-entry hot path of every hash kernel
func Accum[T matrix.Arith](t *TableOf[T], r matrix.Index, v T) {
	h := (hashMul * uint32(r)) & t.mask
	for {
		t.Probes++
		if t.stamps[h] != t.epoch { // empty slot
			t.stamps[h] = t.epoch
			t.keys[h] = r
			t.vals[h] = v
			t.slots[t.n] = h
			t.n++
			return
		}
		if t.keys[h] == r {
			t.vals[h] += v
			return
		}
		h = (h + 1) & t.mask // linear probing
	}
}

// AddWith is Accum under an arbitrary combine operation: it inserts
// (r, v) and, when r is already present, replaces the stored value
// with combine(stored, v). Accum is exactly AddWith with "+" inlined;
// the kernels select between them once per column, so the generic
// path's indirect call is paid only by non-Plus monoids.
//
//spkadd:noalloc per-entry hot path of every hash kernel
func (t *TableOf[T]) AddWith(r matrix.Index, v T, combine func(a, b T) T) {
	h := (hashMul * uint32(r)) & t.mask
	for {
		t.Probes++
		if t.stamps[h] != t.epoch { // empty slot
			t.stamps[h] = t.epoch
			t.keys[h] = r
			t.vals[h] = v
			t.slots[t.n] = h
			t.n++
			return
		}
		if t.keys[h] == r {
			t.vals[h] = combine(t.vals[h], v)
			return
		}
		h = (h + 1) & t.mask // linear probing
	}
}

// Insert records r without a value and reports whether r was new
// (lines 7-12 of Algorithm 6: the nonzero counter increments on first
// sight only), so Len counts the distinct keys inserted. It is the
// symbolic phase's count: it writes only the key and the stamp, the
// same memory traffic as an index-only table. Values and the slot
// list are left stale, so neither Get and AppendEntries nor Accum and
// AddWith are valid on the table until the next Grow or Reset.
func (t *TableOf[T]) Insert(r matrix.Index) bool {
	h := (hashMul * uint32(r)) & t.mask
	for {
		t.Probes++
		if t.stamps[h] != t.epoch { // empty slot
			t.stamps[h] = t.epoch
			t.keys[h] = r
			t.n++
			return true
		}
		if t.keys[h] == r {
			return false
		}
		h = (h + 1) & t.mask // linear probing
	}
}

// Get returns the accumulated value for r and whether r is present.
func (t *TableOf[T]) Get(r matrix.Index) (T, bool) {
	h := (hashMul * uint32(r)) & t.mask
	for {
		if t.stamps[h] != t.epoch {
			var z T
			return z, false
		}
		if t.keys[h] == r {
			return t.vals[h], true
		}
		h = (h + 1) & t.mask
	}
}

// AppendEntries appends all valid (row, value) pairs to rows/vals in
// insertion order (lines 13-14 of Algorithm 5) and returns the extended
// slices. It costs O(Len), not O(Cap): it walks the occupied-slot list
// instead of the probe window. Insertion order is not sorted; callers
// sort afterwards if needed.
func (t *TableOf[T]) AppendEntries(rows []matrix.Index, vals []T) ([]matrix.Index, []T) {
	for _, h := range t.slots[:t.n] {
		rows = append(rows, t.keys[h])
		vals = append(vals, t.vals[h])
	}
	return rows, vals
}
