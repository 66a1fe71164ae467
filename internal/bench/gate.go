package bench

// AllocGateBench selects the steady-state Adder-reuse benchmarks whose
// allocs/op must be exactly zero: the Plus fast path, the generic
// combine path, the non-default schedules, the faults-off injection
// sites, and the non-float64 value-type instantiations
// (float32/int32/int64/bool).
// It is the single source of truth for the CI
// allocation-regression gate — the workflow quotes it verbatim and
// TestAllocGateRegexMatchesCI fails when the two drift apart. The
// escape audit (`go run scripts/escape_audit.go`) is the compile-time
// half of the same contract.
const AllocGateBench = `^BenchmarkAdderReuse(Monoid|Sched|FaultsOff|Dtype)?$`
