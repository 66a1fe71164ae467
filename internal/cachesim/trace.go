package cachesim

import (
	"spkadd/internal/hashtab"
	"spkadd/internal/matrix"
)

// hashMul mirrors the multiplicative hash constant of
// internal/hashtab so traced probe sequences match the real kernels.
const hashMul uint32 = 2654435761

// Synthetic address-space bases. Inputs, hash table and output live in
// disjoint regions, as separate heap allocations would.
const (
	tableBase  = uint64(1) << 39
	outputBase = uint64(2) << 40
	inputBase  = uint64(4) << 40
	inputStep  = uint64(1) << 36 // spacing between input matrices
)

const (
	symbolicSlot = 4  // bytes per symbolic table slot
	addSlot      = 12 // bytes per numeric table slot
	entryBytes   = 12 // bytes per streamed (rowid, value) entry
)

// The modelled last-level cache is 16-way set-associative with 64-byte
// lines.
const (
	llcWays     = 16
	llcLineSize = 64
)

// TraceConfig describes the modelled machine and kernel variant.
type TraceConfig struct {
	// CacheBytes is the total last-level cache M.
	CacheBytes int64
	// Threads is T in the sliding partition formula: T thread-private
	// tables share the LLC, so a single traced thread sees M/T bytes
	// of effective capacity.
	Threads int
	// Sliding selects the sliding-hash kernel (Algorithms 7-8);
	// otherwise the plain hash kernel (Algorithms 5-6) is traced.
	Sliding bool
}

func (c TraceConfig) threads() int {
	if c.Threads < 1 {
		return 1
	}
	return c.Threads
}

// Result reports the traced miss counts, split by phase as in the
// paper's symbolic/computation breakdown.
type Result struct {
	SymbolicMisses int64
	NumericMisses  int64
	Accesses       int64
}

// TotalMisses returns the LL-miss total, the Table V quantity.
func (r Result) TotalMisses() int64 { return r.SymbolicMisses + r.NumericMisses }

// TraceSpKAdd replays the memory accesses of one thread executing the
// hash (or sliding-hash) SpKAdd over all columns and returns the
// last-level miss counts. The traced thread sees CacheBytes/Threads of
// effective capacity, modelling T threads sharing the LLC.
func TraceSpKAdd(as []*matrix.CSC, cfg TraceConfig) Result {
	effective := max(cfg.CacheBytes/int64(cfg.threads()), llcLineSize)
	cache := New(effective, llcWays, llcLineSize)

	var res Result
	n := as[0].Cols
	m := as[0].Rows
	tab := newTraceTable()
	// scratch counts output sizes without cache accounting; it is kept
	// separate from tab so that growing it for a whole column does not
	// inflate the small per-part tables the sliding path probes.
	scratch := newTraceTable()

	// Symbolic phase.
	for j := 0; j < n; j++ {
		inz := 0
		for _, a := range as {
			inz += a.ColNNZ(j)
		}
		if inz == 0 {
			continue
		}
		parts := 1
		if cfg.Sliding {
			parts = hashtab.SlidingParts(inz, symbolicSlot, cfg.threads(), cfg.CacheBytes, 0)
		}
		for part := 0; part < parts; part++ {
			r1 := matrix.Index(part * m / parts)
			r2 := matrix.Index((part + 1) * m / parts)
			partInz := 0
			for _, a := range as {
				partInz += a.ColRangeNNZ(j, r1, r2)
			}
			if partInz == 0 {
				continue
			}
			tab.grow(hashtab.SizeFor(partInz))
			for i, a := range as {
				rows, _ := a.ColRange(j, r1, r2)
				base := inputAddr(i, a, j)
				for p, r := range rows {
					cache.AccessRange(base+uint64(p)*entryBytes, entryBytes)
					tab.insert(r, cache, symbolicSlot)
				}
			}
		}
	}
	res.SymbolicMisses = cache.Misses()
	symAccesses := cache.Accesses()
	cache.Reset()

	// Numeric phase: identical probe streams plus the output stream.
	outPos := uint64(0)
	for j := 0; j < n; j++ {
		onz := distinctRows(as, j, scratch)
		if onz == 0 {
			continue
		}
		parts := 1
		if cfg.Sliding {
			parts = hashtab.SlidingParts(onz, addSlot, cfg.threads(), cfg.CacheBytes, 0)
		}
		for part := 0; part < parts; part++ {
			r1 := matrix.Index(part * m / parts)
			r2 := matrix.Index((part + 1) * m / parts)
			partInz := 0
			for _, a := range as {
				partInz += a.ColRangeNNZ(j, r1, r2)
			}
			if partInz == 0 {
				continue
			}
			// The real numeric kernel sizes a single table by the exact
			// output nnz (from the symbolic phase) and per-part tables
			// by the part's input nnz upper bound.
			growN := partInz
			if parts == 1 {
				growN = onz
			}
			tab.grow(hashtab.SizeFor(growN))
			written := 0
			for i, a := range as {
				rows, _ := a.ColRange(j, r1, r2)
				base := inputAddr(i, a, j)
				for p, r := range rows {
					cache.AccessRange(base+uint64(p)*entryBytes, entryBytes)
					if tab.insert(r, cache, addSlot) {
						written++
					}
				}
			}
			// Emit the part's output entries as a sequential stream.
			for w := 0; w < written; w++ {
				cache.AccessRange(outputBase+(outPos+uint64(w))*entryBytes, entryBytes)
			}
			outPos += uint64(written)
		}
	}
	res.NumericMisses = cache.Misses()
	res.Accesses = symAccesses + cache.Accesses()
	return res
}

// distinctRows counts nnz(B(:,j)) using the trace table without
// touching the cache model (this knowledge comes from the symbolic
// phase in the real kernel).
func distinctRows(as []*matrix.CSC, j int, tab *traceTable) int {
	inz := 0
	for _, a := range as {
		inz += a.ColNNZ(j)
	}
	if inz == 0 {
		return 0
	}
	tab.grow(hashtab.SizeFor(inz))
	n := 0
	for _, a := range as {
		for _, r := range a.ColRows(j) {
			if tab.insertQuiet(r) {
				n++
			}
		}
	}
	return n
}

func inputAddr(i int, a *matrix.CSC, j int) uint64 {
	return inputBase + uint64(i)*inputStep + uint64(a.ColPtr[j])*entryBytes
}

// traceTable replicates the linear-probing insert of internal/hashtab
// while reporting each probed slot to the cache model.
type traceTable struct {
	keys []matrix.Index
	mask uint32
}

func newTraceTable() *traceTable { return &traceTable{} }

// grow mirrors hashtab.Grow: storage only ever enlarges, but the
// active probe window narrows to the requested size.
func (t *traceTable) grow(size int) {
	if size > len(t.keys) {
		t.keys = make([]matrix.Index, size)
	}
	t.mask = uint32(size - 1)
	for i := 0; i < size; i++ {
		t.keys[i] = -1
	}
}

// insert probes for r, touching each probed slot in the cache model,
// and returns true when r was newly inserted.
func (t *traceTable) insert(r matrix.Index, cache *Cache, slotBytes int) bool {
	h := (hashMul * uint32(r)) & t.mask
	for {
		cache.AccessRange(tableBase+uint64(h)*uint64(slotBytes), slotBytes)
		k := t.keys[h]
		if k == -1 {
			t.keys[h] = r
			return true
		}
		if k == r {
			return false
		}
		h = (h + 1) & t.mask
	}
}

// insertQuiet probes without cache accounting.
func (t *traceTable) insertQuiet(r matrix.Index) bool {
	h := (hashMul * uint32(r)) & t.mask
	for {
		k := t.keys[h]
		if k == -1 {
			t.keys[h] = r
			return true
		}
		if k == r {
			return false
		}
		h = (h + 1) & t.mask
	}
}
