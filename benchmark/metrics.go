package main

import (
	"math"
	"sort"
)

// metricDef is one catalogue entry; BENCHMARK.json lists the same
// names, units and directions (TestSmoke checks both ways).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the library or the daemon sees.
// Every workload reports all of them, from untraced rounds only.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"entries_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced-round metrics, named <module>.<what>. Every
// workload reports all of them; a layer the workload does not reach
// reads 0, so a change to that layer should read as no change there.
var perLayer = []metricDef{
	{"core.add_ms", "ms", "lower"},
	{"core.symbolic_ms", "ms", "lower"},
	{"core.numeric_ms", "ms", "lower"},
	{"core.unattributed_ms", "ms", "lower"},
	{"core.out_per_in", "ratio", "lower"},
	{"core.entries_moved_per_entry", "1/entry", "lower"},
	{"core.sym_probes_per_entry", "1/entry", "lower"},
	{"core.bytes_computed_per_entry", "B/entry", "lower"},
	{"core.gbps_computed", "GB/s", "higher"},
	{"hashtab.probes_per_entry", "1/entry", "lower"},
	{"spa.touches_per_entry", "1/entry", "lower"},
	{"kheap.ops_per_entry", "1/entry", "lower"},
	{"sched.load_imbalance", "ratio", "lower"},
	{"sched.steals_per_op", "1/op", "lower"},
	{"sched.regions_per_op", "1/op", "lower"},
	{"core.pool_push_p50_ms", "ms", "lower"},
	{"core.pool_push_p90_ms", "ms", "lower"},
	{"core.pool_sum_p50_ms", "ms", "lower"},
	{"core.pool_reductions_per_push", "1/push", "lower"},
	{"core.pool_pending_bytes_max", "B", "lower"},
	{"matrix.to_csc_p50_ms", "ms", "lower"},
	{"server.decode_p50_ms", "ms", "lower"},
	{"server.encode_p50_ms", "ms", "lower"},
	{"server.http_overhead_push_ms", "ms", "lower"},
	{"server.http_overhead_sum_ms", "ms", "lower"},
	{"server.snapshot_p50_ms", "ms", "lower"},
	{"server.snapshot_p90_ms", "ms", "lower"},
	{"spgemm.local_multiply_ms", "ms", "lower"},
	{"summa.spkadd_ms", "ms", "lower"},
	{"summa.spkadd_max_ms", "ms", "lower"},
	{"summa.distribute_ms", "ms", "lower"},
	{"summa.compression_factor", "ratio", "higher"},
	{"summa.comm_bytes", "B", "lower"},
	{"process.alloc_bytes_per_entry", "B/entry", "lower"},
	{"host.probe_ms", "ms", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// roundResult is what one round (one child process) reports.
type roundResult struct {
	Workload  string  `json:"workload"`
	Trace     bool    `json:"trace"`
	Correct   bool    `json:"correct"`
	Error     string  `json:"error,omitempty"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	SetupS    float64 `json:"setup_s"`
	ProbeMS   float64 `json:"probe_ms"`
	TimedS    float64 `json:"timed_s"`
	Entries   int64   `json:"entries"`
	// OpMS holds the latency of every untraced op, SnapMS of every
	// snapshot (ingest-http only).
	OpMS       []float64          `json:"op_ms"`
	SnapMS     []float64          `json:"snap_ms,omitempty"`
	AllocBytes uint64             `json:"alloc_bytes"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	Layer      map[string]float64 `json:"layer,omitempty"`

	spans []span // traced rounds run in-process keep their spans here
}

// endToEndOf pools the samples of rounds into the end-to-end metrics.
func endToEndOf(rounds []roundResult) map[string]float64 {
	var ops, setups, rss []float64
	var entries int64
	var secs float64
	for _, r := range rounds {
		ops = append(ops, r.OpMS...)
		setups = append(setups, r.SetupS)
		rss = append(rss, r.PeakRSSMB)
		entries += r.Entries
		secs += r.TimedS
	}
	return map[string]float64{
		"setup_s":       median(setups),
		"op_p50_ms":     percentile(ops, 50),
		"op_p90_ms":     percentile(ops, 90),
		"entries_per_s": float64(entries) / secs,
		"peak_rss_mb":   median(rss),
	}
}

// extrasOf are the untraced numbers outside the end-to-end set: kept
// in the result file and the printed table, not bounded.
func extrasOf(rounds []roundResult) map[string]float64 {
	var snaps, probes []float64
	var alloc uint64
	var entries int64
	attempted, failed := 0, 0
	for _, r := range rounds {
		snaps = append(snaps, r.SnapMS...)
		probes = append(probes, r.ProbeMS)
		alloc += r.AllocBytes
		entries += r.Entries
		attempted += r.Attempted
		failed += r.Failed
	}
	x := map[string]float64{
		"alloc_bytes_per_entry": float64(alloc) / float64(max(entries, 1)),
		"ops_failed_frac":       float64(failed) / float64(max(attempted, 1)),
		"host.probe_ms":         median(probes),
	}
	if len(snaps) > 0 {
		x["snapshot_p50_ms"] = percentile(snaps, 50)
		x["snapshot_p90_ms"] = percentile(snaps, 90)
	}
	return x
}

// perLayerOf is the median over rounds of each per-layer metric.
func perLayerOf(rounds []roundResult) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		vs := make([]float64, 0, len(rounds))
		for _, r := range rounds {
			vs = append(vs, r.Layer[d.Name])
		}
		out[d.Name] = median(vs)
	}
	return out
}

// newLayer returns a per-layer map with every metric at 0.
func newLayer() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between closest ranks; 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so
// spreads printed here match an external check.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
