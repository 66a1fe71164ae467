package core

import (
	"fmt"
	"testing"

	"spkadd/internal/generate"
	"spkadd/internal/matrix"
	"spkadd/internal/sched"
)

func schedTestInputs(pattern string, k, rows, cols, d int, seed uint64) []*matrix.CSC {
	o := generate.Opts{Rows: rows, Cols: cols, NNZPerCol: d, Seed: seed}
	if pattern == "RMAT" {
		return generate.RMATCollection(k, o, generate.Graph500)
	}
	return generate.ERCollection(k, o)
}

// TestScheduleParity proves every schedule — on the resident executor,
// multi-threaded — produces output bit-identical to the default
// weighted schedule, for every algorithm and engine, on uniform and
// skewed inputs. Scheduling decides only which worker computes which
// column; any difference in the result is a stolen or double-run
// range.
func TestScheduleParity(t *testing.T) {
	for _, pattern := range []string{"ER", "RMAT"} {
		as := schedTestInputs(pattern, 8, 4096, 48, 12, 7)
		for _, alg := range []Algorithm{Hash, SPA, Heap, SlidingHash, TwoWayIncremental} {
			engines := PhasesPolicies
			if alg == SlidingHash || alg == TwoWayIncremental {
				engines = []Phases{PhasesTwoPass}
			}
			for _, p := range engines {
				var want *matrix.CSC
				for _, s := range Schedules {
					opt := Options{Algorithm: alg, Phases: p, Schedule: s, SortedOutput: true, Threads: 4}
					got, err := Add(as, opt)
					if err != nil {
						t.Fatalf("%s/%v/%v/%v: %v", pattern, alg, p, s, err)
					}
					if s == ScheduleWeighted {
						want = got
						continue
					}
					if !got.Equal(want) {
						t.Fatalf("%s/%v/%v: schedule %v result differs from Weighted", pattern, alg, p, s)
					}
				}
			}
		}
	}
}

// TestScheduleStatsObservability verifies OpStats' scheduling
// counters: multi-worker regions are recorded with max >= mean
// per-worker weight, and LoadImbalance reflects them.
func TestScheduleStatsObservability(t *testing.T) {
	as := schedTestInputs("RMAT", 8, 1<<14, 64, 32, 9)
	for _, s := range Schedules {
		t.Run(s.String(), func(t *testing.T) {
			var stats OpStats
			opt := Options{Algorithm: Hash, Phases: PhasesTwoPass, Schedule: s, Threads: 4, Stats: &stats}
			if _, err := Add(as, opt); err != nil {
				t.Fatal(err)
			}
			if stats.SchedRegions.Load() == 0 {
				t.Fatal("no scheduling regions recorded for a 4-thread two-pass addition")
			}
			if stats.SchedMaxWeight.Load() < stats.SchedMeanWeight.Load() {
				t.Errorf("SchedMaxWeight %d < SchedMeanWeight %d",
					stats.SchedMaxWeight.Load(), stats.SchedMeanWeight.Load())
			}
			if im := stats.LoadImbalance(); im < 1 {
				t.Errorf("LoadImbalance() = %v, want >= 1", im)
			}
			if s != ScheduleWeightedStealing && stats.Steals.Load() != 0 {
				t.Errorf("schedule %v recorded %d steals, want 0", s, stats.Steals.Load())
			}
		})
	}
}

// TestScheduleOutOfRangeNormalizes verifies an out-of-range
// Options.Schedule behaves as the weighted default instead of
// something accidental.
func TestScheduleOutOfRangeNormalizes(t *testing.T) {
	as := schedTestInputs("ER", 4, 512, 16, 8, 3)
	want, err := Add(as, Options{Algorithm: Hash, SortedOutput: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Add(as, Options{Algorithm: Hash, SortedOutput: true, Threads: 2, Schedule: Schedule(99)})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("Schedule(99) result differs from the weighted default")
	}
}

// TestSharedExecutorOptionParity runs additions from several
// workspaces through one caller-provided budgeted executor and checks
// parity — the Options.Executor handle must only change where the
// work runs, never what it computes.
func TestSharedExecutorOptionParity(t *testing.T) {
	ex := sched.NewExecutor(2)
	defer ex.Close()
	as := schedTestInputs("RMAT", 6, 2048, 32, 16, 5)
	for _, s := range Schedules {
		for _, alg := range []Algorithm{Hash, Heap, TwoWayTree} {
			opt := Options{Algorithm: alg, SortedOutput: true, Threads: 4, Schedule: s}
			want, err := Add(as, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Executor = ex
			ws := NewWorkspace(false)
			for iter := 0; iter < 3; iter++ {
				got, err := ws.Add(as, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%v/%v: shared-executor result differs (iter %d)", alg, s, iter)
				}
			}
		}
	}
}

// TestWorkspaceZeroAllocAllSchedules is the core-level form of the
// tentpole acceptance: a warmed recycling workspace at Threads=2 runs
// every schedule × engine combination without allocating — including
// the racy schedules, whose column→worker assignment varies run to
// run (the reservation path), and including the executor's own
// scheduling machinery. Both engines stage in workspace-owned
// buffers, so the zero is strict at any size: the second input holds
// ~48K entries, 28% of them duplicates.
func TestWorkspaceZeroAllocAllSchedules(t *testing.T) {
	inputs := [][]*matrix.CSC{
		schedTestInputs("RMAT", 8, 2048, 48, 8, 13),
		schedTestInputs("ER", 16, 1024, 64, 48, 14),
	}
	for _, alg := range []Algorithm{Hash, SPA, Heap} {
		for _, s := range Schedules {
			for _, p := range PhasesPolicies {
				t.Run(fmt.Sprintf("%v/%v/%v", alg, s, p), func(t *testing.T) {
					for _, as := range inputs {
						ws := NewWorkspace(true)
						opt := Options{Algorithm: alg, Phases: p, Schedule: s, SortedOutput: true, Threads: 2}
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
							t.Errorf("%d input entries: steady state allocates %.1f times per op, want 0", totalNNZ(as), allocs)
						}
					}
				})
			}
		}
	}
}
