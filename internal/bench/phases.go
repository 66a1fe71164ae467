package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"spkadd/internal/core"
	"spkadd/internal/generate"
	"spkadd/internal/matrix"
	"spkadd/internal/ops"
)

// phasesCase is one workload of the engine-comparison experiment.
type phasesCase struct {
	pattern string
	k, d    int
}

func phasesCases() []phasesCase {
	return []phasesCase{
		{"ER", 8, 64},
		{"ER", 32, 256},
		{"ER", 64, 1024},
		{"RMAT", 32, 128},
	}
}

func phasesCollection(c phasesCase, rows, cols int) []*matrix.CSC {
	o := generate.Opts{Rows: rows, Cols: cols, NNZPerCol: c.d, Seed: 97}
	if c.pattern == "RMAT" {
		return generate.RMATCollection(c.k, o, generate.Graph500)
	}
	return generate.ERCollection(c.k, o)
}

// Phases compares the execution engines — two-pass and upper bound —
// across algorithms and workloads. This is the experiment behind the
// single-pass engine's headline claim: it hits the O(knd)
// memory-traffic lower bound while the two-pass driver runs at ~2x it.
func Phases(cfg Config) error {
	m := 1 << 18 / cfg.scale()
	n := 64 / cfg.scale()
	if n < 8 {
		n = 8
	}
	algs := []core.Algorithm{core.Hash, core.SPA, core.Heap}
	fmt.Fprintf(cfg.Out, "Engine comparison: SpKAdd runtime (s), m=%d n=%d (speedup vs two-pass)\n", m, n)
	fmt.Fprintf(cfg.Out, "%-18s %-6s", "Workload", "Alg")
	for _, p := range core.PhasesPolicies {
		fmt.Fprintf(cfg.Out, " %16v", p)
	}
	fmt.Fprintln(cfg.Out)
	for _, c := range phasesCases() {
		as := phasesCollection(c, m, n)
		for _, alg := range algs {
			fmt.Fprintf(cfg.Out, "%-18s %-6v", fmt.Sprintf("%s k=%d d=%d", c.pattern, c.k, c.d), alg)
			var twoPass time.Duration
			for _, p := range core.PhasesPolicies {
				opt := core.Options{Algorithm: alg, Phases: p, Threads: cfg.Threads, CacheBytes: cfg.cacheBytes()}
				dur, _, err := timeAdd(as, opt, cfg.reps())
				if err != nil {
					return fmt.Errorf("%s %v %v: %w", c.pattern, alg, p, err)
				}
				if p == core.PhasesTwoPass {
					twoPass = dur
					fmt.Fprintf(cfg.Out, " %16s", fmtDur(dur))
				} else {
					fmt.Fprintf(cfg.Out, " %9s (%4.2fx)", fmtDur(dur), float64(twoPass)/float64(dur))
				}
			}
			fmt.Fprintln(cfg.Out)
		}
	}
	fmt.Fprintln(cfg.Out)
	return nil
}

// BaselineCell is one measurement of the committed perf baseline.
// AllocsPerOp/BytesPerOp are heap allocation counts averaged over the
// timed repetitions (runtime.MemStats deltas), so allocation
// regressions on the one-shot path are visible in baseline diffs just
// like runtime regressions.
type BaselineCell struct {
	Pattern   string `json:"pattern"`
	K         int    `json:"k"`
	D         int    `json:"d"`
	Algorithm string `json:"algorithm"`
	Engine    string `json:"engine"`
	Monoid    string `json:"monoid"`
	Schedule  string `json:"schedule"`
	// Dtype is the element type of the value axis (schema 7):
	// "float64" on the classic grid, "float32" on the narrow-value
	// sweep. Cells from pre-7 baselines have no dtype and are all
	// float64.
	Dtype       string  `json:"dtype"`
	Seconds     float64 `json:"seconds"`
	NNZIn       int     `json:"nnz_in"`
	NNZOut      int     `json:"nnz_out"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// BaselineReport is the schema of BENCH_baseline.json: enough
// machine context to interpret the numbers, and one cell per
// (workload, algorithm, engine).
type BaselineReport struct {
	Schema     int    `json:"schema"`
	CreatedAt  string `json:"created_at"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU and CPUModel pin the host topology: comparing a cell
	// against a baseline from a different core count or part is a
	// hardware delta, not a regression. CPUModel is best-effort
	// (empty where /proc/cpuinfo has no model name).
	NumCPU   int            `json:"num_cpu"`
	CPUModel string         `json:"cpu_model,omitempty"`
	Rows     int            `json:"rows"`
	Cols     int            `json:"cols"`
	Reps     int            `json:"reps"`
	Cells    []BaselineCell `json:"cells"`
}

// cpuModel reads the host CPU's marketing name from /proc/cpuinfo
// (the first "model name" line); empty on any failure — non-Linux
// hosts, stripped containers — rather than an error, since the field
// is context, not data.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// Baseline measures a small, fixed grid of shapes across all
// algorithms and engines and writes the result as JSON. The committed
// BENCH_baseline.json gives future perf PRs a trajectory to compare
// against (regenerate with `spkadd-bench -baseline <path>`).
func Baseline(cfg Config, out io.Writer) error {
	const rows, cols = 1 << 15, 32
	rep := BaselineReport{
		// 2 added allocs/bytes per op; 3 added monoid cells; 4 added
		// the schedule field (Weighted on pre-4 cells) and a schedule
		// sweep on the first workload; 5 added the host topology
		// (num_cpu, cpu_model); 6 added a planner sweep, since removed;
		// 7 added the dtype field and a float32 sweep on the second
		// workload.
		Schema:     7,
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Rows:       rows,
		Cols:       cols,
		Reps:       cfg.reps(),
	}
	cases := []phasesCase{
		{"ER", 8, 64},
		{"ER", 32, 256},
		{"RMAT", 16, 64},
	}
	// The full algorithm × engine grid runs under Plus (the original
	// baseline dimensions — these cells prove the fast path is
	// unregressed by the monoid layer); the first workload adds a
	// non-Plus sweep so the generic combine path has a trajectory too.
	for ci, c := range cases {
		as := phasesCollection(c, rows, cols)
		in := 0
		for _, a := range as {
			in += a.NNZ()
		}
		monoids := []*ops.Monoid{ops.Plus}
		if ci == 0 {
			monoids = ops.Builtins
		}
		for _, mon := range monoids {
			for _, alg := range []core.Algorithm{core.Hash, core.SPA, core.Heap} {
				for _, p := range core.PhasesPolicies {
					opt := core.Options{Algorithm: alg, Phases: p, Monoid: mon, Threads: cfg.Threads, CacheBytes: cfg.cacheBytes()}
					cell, err := measureBaselineCell(c, as, in, opt, cfg)
					if err != nil {
						return fmt.Errorf("baseline %s %s %v %v: %w", c.pattern, mon.Name, alg, p, err)
					}
					rep.Cells = append(rep.Cells, cell)
				}
			}
		}
		if ci == 1 {
			// Dtype sweep (schema 7): the same algorithm × engine grid
			// under Plus with float32 values — entries shrink from 12 to
			// 8 bytes, so these cells track the narrow-value bandwidth
			// win on the baseline's largest-d workload.
			as32 := make([]*matrix.CSCOf[float32], len(as))
			for i, a := range as {
				as32[i] = toF32(a)
			}
			for _, alg := range []core.Algorithm{core.Hash, core.SPA, core.Heap} {
				for _, p := range core.PhasesPolicies {
					opt := core.OptionsOf[float32]{Algorithm: alg, Phases: p, Threads: cfg.Threads, CacheBytes: cfg.cacheBytes()}
					cell, err := measureBaselineCell(c, as32, in, opt, cfg)
					if err != nil {
						return fmt.Errorf("baseline %s float32 %v %v: %w", c.pattern, alg, p, err)
					}
					rep.Cells = append(rep.Cells, cell)
				}
			}
		}
		if ci == 0 {
			// Schedule sweep (schema 4): the non-default schedules on
			// the first workload, Hash two-pass, so the resident
			// executor's scheduling paths have a perf trajectory too
			// (the Weighted default is the grid above).
			for _, s := range []core.Schedule{core.ScheduleStatic, core.ScheduleDynamic, core.ScheduleWeightedStealing} {
				opt := core.Options{Algorithm: core.Hash, Phases: core.PhasesTwoPass, Schedule: s, Threads: cfg.Threads, CacheBytes: cfg.cacheBytes()}
				cell, err := measureBaselineCell(c, as, in, opt, cfg)
				if err != nil {
					return fmt.Errorf("baseline %s schedule %v: %w", c.pattern, s, err)
				}
				rep.Cells = append(rep.Cells, cell)
			}
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// dtypeName spells the element type T the way baseline cells and the
// dtype experiment report it.
func dtypeName[T matrix.Number]() string {
	var z T
	switch any(z).(type) {
	case float64:
		return "float64"
	case float32:
		return "float32"
	case int32:
		return "int32"
	case int64:
		return "int64"
	case bool:
		return "bool"
	}
	return "unknown"
}

// measureBaselineCell warms one configuration, times it, and samples
// the allocation deltas of the timed repetitions. Generic over the
// element type so the schema-7 dtype sweep measures float32 cells with
// the same harness as the float64 grid.
func measureBaselineCell[T matrix.Number](c phasesCase, as []*matrix.CSCOf[T], in int, opt core.OptionsOf[T], cfg Config) (BaselineCell, error) {
	b, _, err := core.AddTimed(as, opt) // warm once, then time
	if err != nil {
		return BaselineCell{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var dur time.Duration = -1
	for r := 0; r < cfg.reps(); r++ {
		start := time.Now()
		if _, _, err := core.AddTimed(as, opt); err != nil {
			return BaselineCell{}, err
		}
		if d := time.Since(start); dur < 0 || d < dur {
			dur = d
		}
	}
	runtime.ReadMemStats(&m1)
	reps := float64(cfg.reps())
	monName := ops.Plus.Name
	if opt.Monoid != nil {
		monName = opt.Monoid.Name
	}
	return BaselineCell{
		Pattern:     c.pattern,
		K:           c.k,
		D:           c.d,
		Algorithm:   opt.Algorithm.String(),
		Engine:      opt.Phases.String(),
		Monoid:      monName,
		Schedule:    opt.Schedule.String(),
		Dtype:       dtypeName[T](),
		Seconds:     dur.Seconds(),
		NNZIn:       in,
		NNZOut:      b.NNZ(),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / reps,
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / reps,
	}, nil
}
