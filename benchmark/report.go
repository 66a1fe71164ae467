package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// result is the file -out writes and -compare reads.
type result struct {
	Seed         uint64                    `json:"seed"`
	GitRev       string                    `json:"git_rev"`
	GoVersion    string                    `json:"go_version"`
	GOMAXPROCS   int                       `json:"gomaxprocs"`
	NumCPU       int                       `json:"num_cpu"`
	CPUModel     string                    `json:"cpu_model"`
	Rounds       int                       `json:"rounds"`
	RoundSeconds float64                   `json:"round_seconds"`
	Trace        bool                      `json:"trace"`
	Workloads    map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Extra holds untraced numbers outside the end-to-end set.
	Extra map[string]float64 `json:"extra,omitempty"`
	// RoundMetrics holds each round's own value of every metric, for
	// the round-level quartiles -compare uses.
	RoundMetrics []map[string]float64 `json:"round_metrics"`
}

func newResult(seed uint64, rounds int, roundSeconds float64, traced bool) *result {
	model, _ := procField("/proc/cpuinfo", "model name")
	var rev []byte
	if _, err := os.Stat(".git"); err == nil {
		// Only in a git checkout: git would otherwise search the
		// directories above this one.
		rev, _ = exec.Command("git", "rev-parse", "HEAD").Output()
	}
	return &result{
		Seed:         seed,
		GitRev:       strings.TrimSpace(string(rev)),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     strings.TrimLeft(model, ": \t"),
		Rounds:       rounds,
		RoundSeconds: roundSeconds,
		Trace:        traced,
		Workloads:    map[string]workloadResult{},
	}
}

// aggregate pools one workload's rounds.
func aggregate(rounds []roundResult, traced bool) workloadResult {
	w := workloadResult{Correct: len(rounds) > 0, Metrics: map[string]metricValue{}}
	for _, r := range rounds {
		w.Correct = w.Correct && r.Correct
		w.Attempted += r.Attempted
		w.Failed += r.Failed
		if r.Error != "" {
			w.Errors = append(w.Errors, r.Error)
		}
	}
	values := func(rs []roundResult) map[string]float64 {
		if traced {
			return perLayerOf(rs)
		}
		m := endToEndOf(rs)
		m["host.probe_ms"] = extrasOf(rs)["host.probe_ms"]
		return m
	}
	all := values(rounds)
	for _, d := range catalogue(traced) {
		w.Metrics[d.Name] = metricValue{Value: all[d.Name], Unit: d.Unit}
	}
	if !traced {
		w.Extra = extrasOf(rounds)
	}
	for i := range rounds {
		w.RoundMetrics = append(w.RoundMetrics, values(rounds[i:i+1]))
	}
	return w
}

func writeResult(path string, res *result) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing the result: %w", err)
	}
	return nil
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

func printTable(w io.Writer, res *result, names []string) {
	fmt.Fprintf(w, "seed %d, %d round(s) x %.3gs, %s, GOMAXPROCS %d, %s\n",
		res.Seed, res.Rounds, res.RoundSeconds, res.GoVersion, res.GOMAXPROCS, res.CPUModel)
	for _, name := range names {
		wr := res.Workloads[name]
		fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", name, wr.Correct, wr.Attempted, wr.Failed)
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
		for _, d := range catalogue(res.Trace) {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", d.Name, wr.Metrics[d.Name].Value, d.Unit)
		}
		keys := make([]string, 0, len(wr.Extra))
		for k := range wr.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-32s %14.6g (not bounded)\n", k, wr.Extra[k])
		}
	}
}

// benchDef is the part of BENCHMARK.json this program reads.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBench(path string) (*benchDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// hostDriftLimit is how far the host probe medians of two results may
// differ before the comparison is flagged as made on different hosts
// (or one host under different load).
const hostDriftLimit = 0.05

// runCompare prints one row per workload and end-to-end metric with a
// verdict from the round-level values: unresolved when either side's
// interquartile spread exceeds the bound (unless every round of b
// reads better than every round of a), else worse or improved when
// the medians differ by more than the bound, else unchanged. It
// reports whether any row is worse.
func runCompare(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	def, err := readBench(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readResult(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResult(bPath)
	if err != nil {
		return false, err
	}
	if a.Trace || b.Trace {
		return false, fmt.Errorf("-compare takes untraced results")
	}
	fmt.Fprintf(w, "a: %s seed %d rev %.12s on %s (%d cpu)\n", aPath, a.Seed, a.GitRev, a.CPUModel, a.NumCPU)
	fmt.Fprintf(w, "b: %s seed %d rev %.12s on %s (%d cpu)\n", bPath, b.Seed, b.GitRev, b.CPUModel, b.NumCPU)
	if a.CPUModel != b.CPUModel || a.NumCPU != b.NumCPU {
		fmt.Fprintln(w, "FLAG: the results come from different hosts")
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		if _, ok := b.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	worse := false
	fmt.Fprintf(w, "%-13s %-15s %12s %12s %8s %7s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		pa, pb := roundValues(wa, "host.probe_ms"), roundValues(wb, "host.probe_ms")
		if ma, mb := median(pa), median(pb); ma > 0 && math.Abs(mb-ma)/ma > hostDriftLimit {
			fmt.Fprintf(w, "FLAG: %s host probe medians differ by %+.1f%% (%.4g vs %.4g ms)\n", name, 100*(mb-ma)/ma, ma, mb)
		}
		if wb.Failed > wa.Failed || (wa.Correct && !wb.Correct) {
			worse = true
			fmt.Fprintf(w, "%-13s %-15s %12d %12d %8s %7s  worse\n", name, "failed_ops", wa.Failed, wb.Failed, "", "+0")
		}
		for _, m := range def.EndToEnd {
			va, vb := roundValues(wa, m.Name), roundValues(wb, m.Name)
			v := verdict(va, vb, m.Bound, m.Better == "higher")
			if v == "worse" {
				worse = true
			}
			ma, mb := median(va), median(vb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			fmt.Fprintf(w, "%-13s %-15s %12.5g %12.5g %+7.1f%% %6.0f%%  %s\n", name, m.Name, ma, mb, 100*change, 100*m.Bound, v)
		}
	}
	return worse, nil
}

func roundValues(w workloadResult, name string) []float64 {
	vs := make([]float64, 0, len(w.RoundMetrics))
	for _, m := range w.RoundMetrics {
		vs = append(vs, m[name])
	}
	return vs
}

// verdict classifies b against a for a metric with the given bound.
func verdict(a, b []float64, bound float64, higherBetter bool) string {
	ma, mb := median(a), median(b)
	if ma == 0 || len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	gain := (ma - mb) / ma // positive when b is lower
	if higherBetter {
		gain = -gain
	}
	if relSpread(a) > bound || relSpread(b) > bound {
		if allBetter(a, b, higherBetter) {
			return "improved"
		}
		return "unresolved"
	}
	switch {
	case gain < -bound:
		return "worse"
	case gain > bound:
		return "improved"
	}
	return "unchanged"
}

// allBetter reports whether every value of b reads better than every
// value of a.
func allBetter(a, b []float64, higherBetter bool) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if higherBetter {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
