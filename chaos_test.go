package spkadd_test

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"spkadd"
	"spkadd/internal/faults"
	"spkadd/internal/faults/leakcheck"
)

// The public half of the chaos suite: the failure model as callers of
// the spkadd package see it. The schedules and state machines are
// exercised in depth by internal/core's chaos tests; these pin the
// exported surface — type identities, sticky poisoning, context errors.

// TestChaosAdderPoisonedByPanic: an Adder whose call panics returns a
// *spkadd.PanicError and refuses further work with the same error —
// its workspace scratch is mid-kernel garbage and must never be
// reused, even after the fault schedule is gone.
func TestChaosAdderPoisonedByPanic(t *testing.T) {
	leakcheck.Begin(t)
	in := faults.New(21, faults.Rule{Point: faults.PanicInKernel, Key: 0, Count: 1})
	deactivate := faults.Activate(in)
	defer deactivate()

	as := adderTestInputs(4, 200, 8, 6, 81)
	ad := spkadd.NewAdder()
	stats := &spkadd.OpStats{}
	opt := spkadd.Options{Algorithm: spkadd.Hash, Threads: 1, Stats: stats}
	_, err := ad.Add(as, opt)
	var pe *spkadd.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Add over a panicking kernel = %v, want *spkadd.PanicError", err)
	}
	if _, ok := pe.Value.(faults.InjectedPanic); !ok {
		t.Errorf("panic value = %v, want the injected panic", pe.Value)
	}
	if n := stats.PanicsRecovered.Load(); n != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", n)
	}

	deactivate()
	if _, err2 := ad.Add(as, opt); !errors.As(err2, &pe) {
		t.Errorf("Add on a poisoned Adder = %v, want the sticky *PanicError", err2)
	}
	// A fresh Adder (and the stateless entry point) are unaffected.
	if _, err := spkadd.NewAdder().Add(as, opt); err != nil {
		t.Errorf("fresh Adder after another's poisoning: %v", err)
	}
	if _, err := spkadd.Add(as, opt); err != nil {
		t.Errorf("package-level Add after an Adder's poisoning: %v", err)
	}
}

// TestChaosPoisonedAdderClosesExecutor: poisoning an Adder closes
// its workspace's executor at once. With the GC off, a dropped but
// unclosed executor keeps its parked worker until a collection runs
// its cleanup, so the worker count falls only if the poisoning path
// calls Close.
func TestChaosPoisonedAdderClosesExecutor(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	as := adderTestInputs(4, 200, 8, 6, 83)
	ad := spkadd.NewAdder()
	opt := spkadd.Options{Algorithm: spkadd.Hash, Threads: 2}
	if _, err := ad.Add(as, opt); err != nil {
		t.Fatal(err)
	}
	warmed := parkedWorkers()
	if warmed < 1 {
		t.Fatalf("a warmed Threads 2 Adder parks %d workers, want at least 1", warmed)
	}

	in := faults.New(23, faults.Rule{Point: faults.PanicInKernel, Key: 0, Count: 1})
	deactivate := faults.Activate(in)
	_, err := ad.Add(as, opt)
	deactivate()
	var pe *spkadd.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Add over a panicking kernel = %v, want *spkadd.PanicError", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for parkedWorkers() >= warmed {
		if time.Now().After(deadline) {
			t.Fatalf("poisoned Adder: %d parked workers remain, want fewer than %d", parkedWorkers(), warmed)
		}
		time.Sleep(time.Millisecond)
	}
}

// parkedWorkers counts the goroutines running a resident executor's
// worker loop.
func parkedWorkers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "sched.(*execState).workerLoop")
}

// TestChaosAddContextCanceled: the public context entry points reject
// a canceled context with ErrCanceled, which unwraps to the standard
// context error for callers matching on that instead.
func TestChaosAddContextCanceled(t *testing.T) {
	as := adderTestInputs(4, 200, 8, 6, 82)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := spkadd.AddContext(ctx, as, spkadd.Options{}); !errors.Is(err, spkadd.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("AddContext = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	ad := spkadd.NewAdder()
	if _, err := ad.AddContext(ctx, as, spkadd.Options{}); !errors.Is(err, spkadd.ErrCanceled) {
		t.Errorf("Adder.AddContext = %v, want ErrCanceled", err)
	}
	// Cancellation is not sticky: the same Adder works uncanceled.
	if _, err := ad.Add(as, spkadd.Options{}); err != nil {
		t.Errorf("Add after a canceled AddContext: %v", err)
	}
}

// TestChaosPoolPublicSurface: the pool's failure API round-trips
// through the public aliases — Health states, ShardError, sticky
// Close — on a panic confined to one shard.
func TestChaosPoolPublicSurface(t *testing.T) {
	leakcheck.Begin(t)
	in := faults.New(22, faults.Rule{Point: faults.PanicInKernel, Key: 1})
	defer faults.Activate(in)()

	as := adderTestInputs(6, 200, 8, 6, 83)
	p := spkadd.NewPool(200, 8, spkadd.PoolOptions{Shards: 2})
	for _, a := range as {
		if err := p.Push(a); err != nil {
			t.Fatal(err)
		}
	}
	_, err := p.Sum()
	var se *spkadd.ShardError
	if !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("Sum = %v, want a ShardError for shard 0", err)
	}
	h := p.Health()
	if h[0].State != spkadd.HealthPoisoned || h[1].State != spkadd.HealthOK {
		t.Errorf("Health = [%v, %v], want [poisoned, ok]", h[0].State, h[1].State)
	}
	if err := p.Close(); !errors.As(err, &se) {
		t.Errorf("Close = %v, want the sticky ShardError", err)
	}
	if err := p.Close(); !errors.Is(err, spkadd.ErrPoolClosed) {
		t.Errorf("second Close = %v, want ErrPoolClosed", err)
	}
}
