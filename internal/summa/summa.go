// Package summa simulates the distributed-memory sparse SUMMA
// algorithm of §IV-E (Fig 5) in-process: a g x g grid of "processes",
// each owning one block of the two operands, runs one process after
// another. A process runs g stages, each a local hash SpGEMM of the
// stage's A and B blocks (the blocks the stage's broadcasts along its
// grid row and column would deliver), and then one SpKAdd over its g
// intermediate products — the exact computation whose two kernels
// (Local Multiply and SpKAdd) Fig 6 reports.
//
// The paper runs on 4096-16384 MPI processes on Cori; this simulation
// preserves the computational structure (who multiplies what, how many
// intermediates the SpKAdd reduces, sorted vs unsorted intermediates).
// No message is sent: a process reads its stage blocks directly, and
// the broadcast traffic is only counted (Report.CommVolumeBytes), in
// line with Fig 6's computation-only accounting.
package summa

import (
	"errors"
	"fmt"
	"time"

	"spkadd/internal/core"
	"spkadd/internal/matrix"
)

// Config describes one simulated SUMMA run.
type Config struct {
	// Grid is g: the process grid is g x g and each process reduces
	// k = g intermediate products.
	Grid int
	// SpKAdd is the reduction algorithm (the paper compares Heap
	// against Hash).
	SpKAdd core.Algorithm
	// SortIntermediates makes the local multiplications emit sorted
	// columns. Heap SpKAdd requires it; hash SpKAdd does not, which
	// lets the multiply phase skip sorting (the "Unsorted Hash" bars
	// of Fig 6). Skipping it saves about 20% of the multiply:
	// BenchmarkSpGEMM's sorted run takes about 1.2x the unsorted one.
	SortIntermediates bool
	// Threads is the thread count inside each process (the paper uses
	// 8 threads per process); <1 means GOMAXPROCS.
	Threads int
	// Sequential is ignored: processes always run one after another,
	// which keeps each phase's timing undistorted.
	//
	// Deprecated: Run has one schedule; leave the field unset.
	Sequential bool
}

// Report aggregates per-process phase timings. Sum adds the phase
// time of every process (total work); Max is the slowest process
// (the makespan a real distributed run would observe).
type Report struct {
	LocalMultiplySum time.Duration
	LocalMultiplyMax time.Duration
	SpKAddSum        time.Duration
	SpKAddMax        time.Duration
	// IntermediateNNZ is the total nnz across all intermediate
	// products; CompressionFactor is IntermediateNNZ / nnz(C).
	IntermediateNNZ   int64
	CompressionFactor float64
	// CommVolumeBytes is the broadcast traffic the run would generate
	// on a real network: every operand block is delivered to the g-1
	// remote peers of its grid row or column each stage (12 bytes per
	// entry plus column pointers). Fig 6 excludes communication from
	// its timings; the volume is reported for completeness.
	CommVolumeBytes int64
}

// ErrBadGrid reports a grid of fewer than one process. Mismatched
// operands wrap core.ErrDimMismatch and unsorted ones
// core.ErrUnsortedInput, the sentinels the public API exports.
var ErrBadGrid = errors.New("summa: grid must be >= 1")

// Run multiplies a (m x l) by b (l x n) on a Grid x Grid simulated
// process grid and returns the assembled product with the phase
// report. The product's columns are sorted by row, whatever
// SortIntermediates says: every reduction emits sorted blocks, and
// assembly stacks them in ascending row-block order.
func Run(a, b *matrix.CSC, cfg Config) (*matrix.CSC, Report, error) {
	var rep Report
	if a.Cols != b.Rows {
		return nil, rep, fmt.Errorf("%w: %dx%d * %dx%d", core.ErrDimMismatch, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	g := cfg.Grid
	if g < 1 {
		return nil, rep, fmt.Errorf("%w: got %d", ErrBadGrid, g)
	}
	if !a.IsColumnSorted() || !b.IsColumnSorted() {
		return nil, rep, fmt.Errorf("%w: block distribution needs sorted operands", core.ErrUnsortedInput)
	}

	// Distribute: A on the grid as g x g row/column blocks (the
	// owner of A block (i,s) is process (i,s)); likewise B block
	// (s,j) lives at (s,j). Stage s broadcasts A(:,s) blocks along
	// grid rows and B(s,:) blocks along grid columns (Fig 5).
	aBlocks := make([][]*matrix.CSC, g)
	bBlocks := make([][]*matrix.CSC, g)
	for i := 0; i < g; i++ {
		aBlocks[i] = make([]*matrix.CSC, g)
		bBlocks[i] = make([]*matrix.CSC, g)
		r0, r1 := span(a.Rows, g, i)
		for s := 0; s < g; s++ {
			c0, c1 := span(a.Cols, g, s)
			aBlocks[i][s] = a.Block(r0, r1, c0, c1)
		}
		k0, k1 := span(b.Rows, g, i)
		for j := 0; j < g; j++ {
			c0, c1 := span(b.Cols, g, j)
			bBlocks[i][j] = b.Block(k0, k1, c0, c1)
		}
	}

	// Broadcast volume: block (i,s) of A travels to the g-1 other
	// processes in grid row i; block (s,j) of B to grid column j.
	for i := 0; i < g; i++ {
		for s := 0; s < g; s++ {
			rep.CommVolumeBytes += int64(g-1) * blockBytes(aBlocks[i][s])
			rep.CommVolumeBytes += int64(g-1) * blockBytes(bBlocks[i][s])
		}
	}

	mulOpt := core.MulOptions{Threads: cfg.Threads, SortOutput: cfg.SortIntermediates}
	addOpt := core.Options{Algorithm: cfg.SpKAdd, Threads: cfg.Threads, SortedOutput: true}

	// One workspace serves every process's multiplies and reduction in
	// turn, so the g*g*g products and g*g SpKAdds share their scratch
	// structures across stages (a real rank would likewise keep its
	// scratch resident across SUMMA iterations), and the workspace's
	// resident executor runs all of their regions — the whole process
	// loop spawns no per-phase goroutines. Output recycling stays off:
	// each product and each reduced block is retained.
	ws := core.NewWorkspace(false)
	blocks := make([][]*matrix.CSC, g)
	partials := make([]*matrix.CSC, 0, g)
	for i := 0; i < g; i++ {
		blocks[i] = make([]*matrix.CSC, g)
		for j := 0; j < g; j++ {
			var mulTime time.Duration
			for s := 0; s < g; s++ {
				// Stage s: A(:,s) arrives along grid row i and B(s,:)
				// along grid column j.
				start := time.Now()
				p, err := ws.Mul(aBlocks[i][s], bBlocks[s][j], mulOpt)
				mulTime += time.Since(start)
				if err != nil {
					ws.Close()
					return nil, rep, fmt.Errorf("summa: process (%d,%d): %w", i, j, err)
				}
				partials = append(partials, p)
				rep.IntermediateNNZ += int64(p.NNZ())
			}
			start := time.Now()
			sum, err := ws.Add(partials, addOpt)
			addTime := time.Since(start)
			// Dropping the products lets them be collected once the
			// process is done, as they would be on a real rank.
			clear(partials)
			partials = partials[:0]
			if err != nil {
				ws.Close()
				return nil, rep, fmt.Errorf("summa: process (%d,%d): %w", i, j, err)
			}
			blocks[i][j] = sum
			rep.LocalMultiplySum += mulTime
			rep.SpKAddSum += addTime
			rep.LocalMultiplyMax = max(rep.LocalMultiplyMax, mulTime)
			rep.SpKAddMax = max(rep.SpKAddMax, addTime)
		}
	}
	// Closed here rather than deferred: a deferred Close keeps the
	// workspace and its staging reachable through the assembly below,
	// which raises the GC heap goal and the run's peak RSS.
	ws.Close()

	c := assemble(blocks, a.Rows, b.Cols)
	if c.NNZ() > 0 {
		rep.CompressionFactor = float64(rep.IntermediateNNZ) / float64(c.NNZ())
	}
	return c, rep, nil
}

// blockBytes is the serialized size of one operand block: 12 bytes
// per entry plus 8 per column pointer.
func blockBytes(b *matrix.CSC) int64 {
	return int64(b.NNZ())*12 + int64(len(b.ColPtr))*8
}

// span returns the w-th of g near-equal subranges of [0, n).
func span(n, g, w int) (int, int) { return w * n / g, (w + 1) * n / g }

// assemble pastes the g x g output blocks back into one global CSC,
// allocated once at the blocks' total nnz.
func assemble(blocks [][]*matrix.CSC, rows, cols int) *matrix.CSC {
	g := len(blocks)
	nnz := 0
	for _, row := range blocks {
		for _, blk := range row {
			nnz += blk.NNZ()
		}
	}
	out := matrix.NewCSC(rows, cols, nnz)
	for gj := 0; gj < g; gj++ {
		c0, c1 := span(cols, g, gj)
		for j := c0; j < c1; j++ {
			for gi := 0; gi < g; gi++ {
				r0, _ := span(rows, g, gi)
				blk := blocks[gi][gj]
				lj := j - c0
				brows, bvals := blk.ColRows(lj), blk.ColVals(lj)
				for p := range brows {
					out.RowIdx = append(out.RowIdx, brows[p]+matrix.Index(r0))
					out.Val = append(out.Val, bvals[p])
				}
			}
			out.ColPtr[j+1] = int64(len(out.RowIdx))
		}
	}
	return out
}
