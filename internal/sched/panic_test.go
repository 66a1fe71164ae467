package sched

import (
	"errors"
	"sync/atomic"
	"testing"

	"spkadd/internal/faults"
	"spkadd/internal/faults/leakcheck"
)

// TestExecutorPanicRecovered is the executor half of the failure
// model: a panic in a region body — on any worker — comes back from
// the region call as a *PanicError; the workers survive and the very
// next region runs normally.
func TestExecutorPanicRecovered(t *testing.T) {
	leakcheck.Begin(t)
	ex := NewExecutor()
	defer ex.Close()

	boom := errors.New("boom")
	zero := make([]int64, 64)
	_, err := ex.Weighted(zero, 4, func(w, lo, hi int) {
		if lo <= 17 && 17 < hi { // exactly one worker's range panics
			panic(boom)
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("region error = %v, want *PanicError", err)
	}
	if pe.Value != boom {
		t.Errorf("PanicError.Value = %v, want the panic value", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	// Error panic values unwrap, so callers can errors.Is through them.
	if !errors.Is(err, boom) {
		t.Error("errors.Is does not reach an error panic value")
	}

	// The executor is fully usable afterwards.
	var n atomic.Int64
	count := func(w, lo, hi int) { n.Add(int64(hi - lo)) }
	weights := make([]int64, 64)
	for i := range weights {
		weights[i] = 1
	}
	if _, err := ex.Weighted(weights, 4, count); err != nil {
		t.Fatalf("Weighted after recovered panic: %v", err)
	}
	if n.Load() != 64 {
		t.Errorf("Weighted after recovered panic covered %d of 64 items", n.Load())
	}
}

// TestExecutorPanicAllWorkers: every worker panicking at once still
// yields one error and a live executor (first panic wins, the rest are
// recovered and dropped).
func TestExecutorPanicAllWorkers(t *testing.T) {
	leakcheck.Begin(t)
	ex := NewExecutor()
	defer ex.Close()
	zero := make([]int64, 64)
	_, err := ex.Weighted(zero, 4, func(w, lo, hi int) { panic(w) })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("region error = %v, want *PanicError", err)
	}
	if _, err := ex.Weighted(zero, 4, func(w, lo, hi int) {}); err != nil {
		t.Fatalf("region after all-worker panic: %v", err)
	}
}

// TestRunInlinePanic: the single-worker fast path converts panics to
// the same *PanicError as resident workers.
func TestRunInlinePanic(t *testing.T) {
	err := RunInline(8, func(w, lo, hi int) { panic("inline") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("RunInline error = %v, want *PanicError", err)
	}
	if pe.Value != "inline" {
		t.Errorf("PanicError.Value = %v, want the panic value", pe.Value)
	}
	if err := RunInline(8, func(w, lo, hi int) {}); err != nil {
		t.Errorf("RunInline after panic: %v", err)
	}
}

// TestExecutorWorkerStallFault: the WorkerStall injection point delays
// workers without changing results, and the injector counts the fires.
func TestExecutorWorkerStallFault(t *testing.T) {
	leakcheck.Begin(t)
	in := faults.New(7, faults.Rule{Point: faults.WorkerStall, Key: faults.KeyAny, Count: 2})
	defer faults.Activate(in)()
	ex := NewExecutor()
	defer ex.Close()
	var n atomic.Int64
	if _, err := ex.Weighted(make([]int64, 64), 4, func(w, lo, hi int) { n.Add(int64(hi - lo)) }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 64 {
		t.Errorf("stalled region covered %d of 64 items", n.Load())
	}
	if in.Fired() == 0 {
		t.Error("WorkerStall rule never fired")
	}
}

// TestExecutorCloseIdempotentLeakFree: double Close releases every
// worker exactly once and leaks nothing.
func TestExecutorCloseIdempotentLeakFree(t *testing.T) {
	leakcheck.Begin(t)
	ex := NewExecutor()
	if _, err := ex.Weighted(make([]int64, 16), 4, func(w, lo, hi int) {}); err != nil {
		t.Fatal(err)
	}
	ex.Close()
	ex.Close() // second Close is a no-op
}
