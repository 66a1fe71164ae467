package core

import "spkadd/internal/matrix"

// This file is the single source of the per-call workload estimate —
// the shape summary (k, total and mean column density) that
// autoSelect and pickPhases both consume. Before it existed, each
// computed its own total-nnz scan and density estimate, which let the
// two heuristics silently drift apart;
// TestEstimateSharedAcrossHeuristics pins them to this one
// computation.

// workloadEstimate summarizes one call's inputs for the planning
// heuristics: everything here is O(k) to compute (one NNZ read per
// input) and derived once per call in validate.
type workloadEstimate struct {
	k    int
	rows int
	cols int
	// total is Σ_i nnz(A_i), the paper's knd.
	total int64
	// avgColNNZ is total/cols — the mean combined input nnz per output
	// column, the paper's kd. Zero when cols is zero.
	avgColNNZ float64
}

// estimateWorkload computes the shared estimate. as must be non-empty
// and dimension-checked (validate calls it after validateDims).
//
//spkadd:noalloc
func estimateWorkload[T matrix.Number](as []*matrix.CSCOf[T]) workloadEstimate {
	e := workloadEstimate{k: len(as), rows: as[0].Rows, cols: as[0].Cols}
	total := 0
	for _, a := range as {
		total += a.NNZ()
	}
	e.total = int64(total)
	if e.cols > 0 {
		e.avgColNNZ = float64(total) / float64(e.cols)
	}
	return e
}
