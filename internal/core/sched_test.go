package core

import (
	"fmt"
	"testing"

	"spkadd/internal/generate"
	"spkadd/internal/matrix"
)

func schedTestInputs(pattern string, k, rows, cols, d int, seed uint64) []*matrix.CSC {
	o := generate.Opts{Rows: rows, Cols: cols, NNZPerCol: d, Seed: seed}
	if pattern == "RMAT" {
		return generate.RMATCollection(k, o, generate.Graph500)
	}
	return generate.ERCollection(k, o)
}

// TestScheduleParity proves multi-threaded additions on the resident
// executor produce output bit-identical to one thread, for every
// algorithm (SlidingHash partitioned or not), on uniform and skewed
// inputs. Scheduling decides only which worker computes which column
// — with stealing, differently from run to run; any difference in the
// result is a stolen or double-run range.
func TestScheduleParity(t *testing.T) {
	for _, pattern := range []string{"ER", "RMAT"} {
		as := schedTestInputs(pattern, 8, 4096, 48, 12, 7)
		for _, base := range []Options{
			{Algorithm: Hash}, {Algorithm: SPA}, {Algorithm: Heap},
			{Algorithm: SlidingHash}, {Algorithm: SlidingHash, MaxTableEntries: 16},
			{Algorithm: TwoWayIncremental},
		} {
			opt := base
			opt.SortedOutput, opt.Threads = true, 1
			name := fmt.Sprintf("%s/%v/max=%d", pattern, opt.Algorithm, opt.MaxTableEntries)
			want, err := Add(as, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, th := range []int{2, 4} {
				opt.Threads = th
				got, err := Add(as, opt)
				if err != nil {
					t.Fatalf("%s/T%d: %v", name, th, err)
				}
				if !bitIdentical(got, want) {
					t.Fatalf("%s: Threads %d result differs from Threads 1", name, th)
				}
			}
		}
	}
}

// engineCells are the engine labels of the allocation and parity
// grids, whose subtest IDs name an algorithm and an engine. Hash, SPA
// and Heap have only the single pass, so a TwoPass cell runs
// SlidingHash, the one k-way algorithm on the two-pass driver
// (engineCell), and the case IDs stay stable.
var engineCells = []Phases{PhasesTwoPass, PhasesUpperBound}

// engineCell is the configuration grid cell alg/engine runs: alg on
// its single pass, or for TwoPass the algorithm left on the two-pass
// driver — SlidingHash, unpartitioned under the Hash label (the
// paper's two-phase hash) and partitioned by an entry cap under SPA
// (16 entries) and Heap (4).
func engineCell(alg Algorithm, engine Phases) Options {
	if engine != PhasesTwoPass {
		return Options{Algorithm: alg}
	}
	switch alg {
	case SPA:
		return Options{Algorithm: SlidingHash, MaxTableEntries: 16}
	case Heap:
		return Options{Algorithm: SlidingHash, MaxTableEntries: 4}
	}
	return Options{Algorithm: SlidingHash}
}

// scheduleRegimes is the grid the schedule tests run the one weighted,
// work-stealing schedule over: uniform (ER) or skewed (RMAT) column
// weights at 2 or 4 workers. Each cell keeps, as its subtest name, one
// of the four column schedules that schedule replaced, so the cases
// keep their IDs.
var scheduleRegimes = []struct {
	name    string
	pattern string
	threads int
}{
	{"Static", "ER", 2},
	{"Weighted", "RMAT", 2},
	{"Dynamic", "ER", 4},
	{"WeightedStealing", "RMAT", 4},
}

// TestScheduleStatsObservability verifies OpStats' scheduling
// counters: multi-worker regions are recorded with max >= mean
// per-worker weight, and LoadImbalance reflects them; a one-thread
// call runs every phase inline and records nothing.
func TestScheduleStatsObservability(t *testing.T) {
	var inline OpStats
	as := schedTestInputs("RMAT", 8, 1<<14, 64, 32, 9)
	if _, err := Add(as, Options{Algorithm: SlidingHash, Threads: 1, Stats: &inline}); err != nil {
		t.Fatal(err)
	}
	if r, st := inline.SchedRegions.Load(), inline.Steals.Load(); r != 0 || st != 0 {
		t.Errorf("Threads 1 recorded %d regions and %d steals, want 0 and 0", r, st)
	}
	for _, rg := range scheduleRegimes {
		t.Run(rg.name, func(t *testing.T) {
			var stats OpStats
			as := schedTestInputs(rg.pattern, 8, 1<<14, 64, 32, 9)
			opt := Options{Algorithm: SlidingHash, Threads: rg.threads, Stats: &stats}
			if _, err := Add(as, opt); err != nil {
				t.Fatal(err)
			}
			if stats.SchedRegions.Load() == 0 {
				t.Fatalf("no scheduling regions recorded for a %d-thread two-pass addition", rg.threads)
			}
			if stats.SchedMaxWeight.Load() < stats.SchedMeanWeight.Load() {
				t.Errorf("SchedMaxWeight %d < SchedMeanWeight %d",
					stats.SchedMaxWeight.Load(), stats.SchedMeanWeight.Load())
			}
			if im := stats.LoadImbalance(); im < 1 {
				t.Errorf("LoadImbalance() = %v, want >= 1", im)
			}
		})
	}
}

// TestWorkspaceZeroAllocAllSchedules is the core-level form of the
// Adder's zero-allocation contract: a warmed recycling workspace runs
// every engine cell (engineCell: Hash, SPA and Heap single-pass,
// SlidingHash unpartitioned and partitioned) without allocating, on
// every cell of scheduleRegimes — on the reservation path, since
// stealing makes the column→worker assignment vary run to run, and
// including the executor's own scheduling machinery. Both engines
// keep their scratch in the workspace, so the zero is strict at any
// size: the ER input holds ~48K entries, 28% of them duplicates.
func TestWorkspaceZeroAllocAllSchedules(t *testing.T) {
	inputs := map[string][]*matrix.CSC{
		"RMAT": schedTestInputs("RMAT", 8, 2048, 48, 8, 13),
		"ER":   schedTestInputs("ER", 16, 1024, 64, 48, 14),
	}
	for _, alg := range []Algorithm{Hash, SPA, Heap} {
		for _, rg := range scheduleRegimes {
			for _, p := range engineCells {
				t.Run(fmt.Sprintf("%v/%s/%v", alg, rg.name, p), func(t *testing.T) {
					as := inputs[rg.pattern]
					ws := NewWorkspace(true)
					opt := engineCell(alg, p)
					opt.SortedOutput, opt.Threads = true, rg.threads
					for warm := 0; warm < 3; warm++ {
						if _, err := ws.Add(as, opt); err != nil {
							t.Fatal(err)
						}
					}
					allocs := testing.AllocsPerRun(10, func() {
						if _, err := ws.Add(as, opt); err != nil {
							t.Fatal(err)
						}
					})
					if allocs != 0 {
						t.Errorf("%d input entries at Threads %d: steady state allocates %.1f times per op, want 0",
							totalNNZ(as), rg.threads, allocs)
					}
				})
			}
		}
	}
}
