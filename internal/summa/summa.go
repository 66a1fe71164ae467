// Package summa simulates the distributed-memory sparse SUMMA
// algorithm of §IV-E (Fig 5) in-process: a g x g grid of "processes"
// (goroutines) each owning one block of the two operands, g broadcast
// stages delivering operand blocks along grid rows and columns, a
// local hash SpGEMM per stage, and a final SpKAdd over the g
// intermediate products per process — the exact computation whose two
// kernels (Local Multiply and SpKAdd) Fig 6 reports.
//
// The paper runs on 4096-16384 MPI processes on Cori; this simulation
// preserves the computational structure (who multiplies what, how many
// intermediates the SpKAdd reduces, sorted vs unsorted intermediates)
// while communication is modelled by channels and excluded from the
// timings, matching Fig 6's computation-only accounting.
package summa

import (
	"errors"
	"fmt"
	"sync"
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
	// Sequential runs processes one after another instead of as
	// concurrent goroutines. Concurrent mode exercises the real
	// dataflow; sequential mode gives undistorted per-phase timings
	// on oversubscribed hosts and is what the benchmark harness uses.
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

	type result struct {
		block   *matrix.CSC
		mulTime time.Duration
		addTime time.Duration
		interNZ int64
		err     error
	}
	results := make([][]result, g)
	for i := range results {
		results[i] = make([]result, g)
	}

	// Broadcast volume: block (i,s) of A travels to the g-1 other
	// processes in grid row i; block (s,j) of B to grid column j.
	var commVolume int64
	for i := 0; i < g; i++ {
		for s := 0; s < g; s++ {
			commVolume += int64(g-1) * blockBytes(aBlocks[i][s])
			commVolume += int64(g-1) * blockBytes(bBlocks[i][s])
		}
	}
	rep.CommVolumeBytes = commVolume

	mulOpt := core.MulOptions{Threads: cfg.Threads, SortOutput: cfg.SortIntermediates}
	addOpt := core.Options{Algorithm: cfg.SpKAdd, Threads: cfg.Threads, SortedOutput: true}

	// In sequential mode one workspace serves every process's
	// multiplies and reduction in turn, so the g*g*g products and g*g
	// SpKAdds share their scratch structures across stages (a real
	// rank would likewise keep its scratch resident across SUMMA
	// iterations), and the workspace's resident executor runs all of
	// their regions — the whole process loop spawns no per-phase
	// goroutines. Output recycling stays off: each product and each
	// reduced block is retained. In concurrent mode the processes draw
	// pooled workspaces (each with its own resident executor) through
	// core.Mul and core.Add instead.
	mul, add := core.Mul[matrix.Value], core.Add[matrix.Value]
	var ws *core.Workspace
	if cfg.Sequential {
		ws = core.NewWorkspace(false)
		mul, add = ws.Mul, ws.Add
	}

	process := func(i, j int, recvA <-chan *matrix.CSC, recvB <-chan *matrix.CSC) result {
		var res result
		partials := make([]*matrix.CSC, 0, g)
		for s := 0; s < g; s++ {
			// "Receive" the stage-s operand blocks. In concurrent
			// mode these arrive over channels from the owners; the
			// transfer is communication and stays outside the timers.
			blkA := <-recvA
			blkB := <-recvB
			start := time.Now()
			p, err := mul(blkA, blkB, mulOpt)
			res.mulTime += time.Since(start)
			if err != nil {
				res.err = err
				return res
			}
			partials = append(partials, p)
			res.interNZ += int64(p.NNZ())
		}
		start := time.Now()
		sum, err := add(partials, addOpt)
		res.addTime = time.Since(start)
		if err != nil {
			res.err = err
			return res
		}
		res.block = sum
		return res
	}

	// Broadcast channels: one per (process, operand). Owners feed
	// every stage in order.
	feed := func(i, j int) (<-chan *matrix.CSC, <-chan *matrix.CSC) {
		ca := make(chan *matrix.CSC, g)
		cb := make(chan *matrix.CSC, g)
		for s := 0; s < g; s++ {
			ca <- aBlocks[i][s] // broadcast along grid row i
			cb <- bBlocks[s][j] // broadcast along grid column j
		}
		close(ca)
		close(cb)
		return ca, cb
	}

	if cfg.Sequential {
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				ca, cb := feed(i, j)
				results[i][j] = process(i, j, ca, cb)
			}
		}
		// Closed here rather than deferred: a deferred Close keeps the
		// workspace and its staging reachable through the assembly
		// below, which raises the GC heap goal and the run's peak RSS.
		ws.Close()
	} else {
		var wg sync.WaitGroup
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				wg.Add(1)
				go func(i, j int) {
					defer wg.Done()
					ca, cb := feed(i, j)
					results[i][j] = process(i, j, ca, cb)
				}(i, j)
			}
		}
		wg.Wait()
	}

	blocks := make([][]*matrix.CSC, g)
	for i := 0; i < g; i++ {
		blocks[i] = make([]*matrix.CSC, g)
		for j := 0; j < g; j++ {
			res := &results[i][j]
			if res.err != nil {
				return nil, rep, fmt.Errorf("summa: process (%d,%d): %w", i, j, res.err)
			}
			blocks[i][j] = res.block
			rep.LocalMultiplySum += res.mulTime
			rep.SpKAddSum += res.addTime
			if res.mulTime > rep.LocalMultiplyMax {
				rep.LocalMultiplyMax = res.mulTime
			}
			if res.addTime > rep.SpKAddMax {
				rep.SpKAddMax = res.addTime
			}
			rep.IntermediateNNZ += res.interNZ
		}
	}

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
