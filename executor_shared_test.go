package spkadd_test

import (
	"sync"
	"testing"

	"spkadd"
)

// TestSharedExecutorAddersAndPool is the executor-sharing race
// hammer: one budgeted Executor serves several concurrent Adders, a
// concurrent Pool's reductions and direct package-level Adds at the
// same time, every caller checking its own results against
// independently computed references. Regions from different callers
// must serialize on the shared pool without corrupting any caller's
// workspace. The CI race job runs this under -race.
func TestSharedExecutorAddersAndPool(t *testing.T) {
	ex := spkadd.NewExecutor(3)
	defer ex.Close()

	const rows, cols = 2048, 32
	streams := make([][]*spkadd.Matrix, 3)
	wants := make([]*spkadd.Matrix, len(streams))
	for g := range streams {
		streams[g] = []*spkadd.Matrix{
			spkadd.RandomER(rows, cols, 8, uint64(10*g+1)),
			spkadd.RandomRMAT(rows, cols, 8, uint64(10*g+2)),
			spkadd.RandomER(rows, cols, 4, uint64(10*g+3)),
		}
		want, err := spkadd.Add(streams[g], spkadd.Options{Algorithm: spkadd.Hash, SortedOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		wants[g] = want
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Concurrent Adders, one per goroutine, all on the shared pool, so
	// stealing regions from different callers interleave.
	for g := range streams {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ad := spkadd.NewAdder()
			for iter := 0; iter < 15; iter++ {
				opt := spkadd.Options{Algorithm: spkadd.Hash, SortedOutput: true, Threads: 4, Executor: ex}
				got, err := ad.Add(streams[g], opt)
				if err != nil {
					errs <- err
					return
				}
				if !got.Equal(wants[g]) {
					t.Errorf("adder %d iter %d: result differs under shared executor", g, iter)
					return
				}
			}
		}(g)
	}

	// A concurrent Pool whose reductions also run on the shared
	// executor (explicit Threads > 1 so they are internally parallel).
	pool := spkadd.NewPool(rows, cols, spkadd.PoolOptions{
		Shards:      2,
		BudgetBytes: 1 << 16,
		Add:         spkadd.Options{Algorithm: spkadd.Hash, Threads: 2, Executor: ex},
	})
	all := make([]*spkadd.Matrix, 0, 9)
	for _, stream := range streams {
		all = append(all, stream...)
	}
	poolWant, err := spkadd.Add(all, spkadd.Options{Algorithm: spkadd.Hash, SortedOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	for g := range streams {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, a := range streams[g] {
				if err := pool.Push(a); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got, err := pool.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if !got.Clone().SortColumns().Equal(poolWant) {
		t.Error("pool sum differs under shared executor")
	}
}
