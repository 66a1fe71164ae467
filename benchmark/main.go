// Command benchmark is the spkadd repository benchmark. It drives four
// workloads through the public entry point of each layer (spkadd.Add,
// spkadd.Adder, spkadd.RunSumma, and the internal/server handler over
// loopback, which feeds a spkadd.Pool), checks every output for
// correctness, and reports the end-to-end metrics of BENCHMARK.json;
// with -trace 1 it reports the per-layer metrics instead. See
// README.md in this directory for the metric catalogue.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh -seed 1 -out a.json     all workloads, untraced
//	bash benchmark/run.sh -seed 1 -trace 1        all workloads, traced
//	bash benchmark/run.sh --workload kadd-er --seed 1 --seconds 24 --trace 0
//	bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh -smoke
//
// Each workload runs in rounds, and each round is a fresh child
// process, so setup and peak RSS are measured per process and rounds
// of different workloads interleave. With -workload the last line of
// standard output is one JSON object: correct, attempted, failed and
// the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload and print its result as one JSON line")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 24, "timed seconds per workload, split evenly across the rounds")
	trace := fs.Int("trace", 0, "1 runs traced rounds and reports the per-layer metrics")
	out := fs.String("out", "", "write the full result as JSON to this file")
	spans := fs.String("spans", ".bench_build/spans", "directory for the spans of traced rounds")
	compare := fs.Bool("compare", false, "compare two result files under the bounds of BENCHMARK.json: -compare a.json b.json")
	smokeRun := fs.Bool("smoke", false, "run every workload untraced and traced at 1/16 scale in this process")
	child := fs.Bool("child", false, "run one round in this process and print its raw result")
	round := fs.Int("round", 0, "round index of a -child run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}
	traced := *trace == 1

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		worse, err := runCompare(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	case *smokeRun:
		results, err := smoke()
		for _, rr := range results {
			fmt.Printf("%-13s trace=%-5v correct=%v attempted=%d failed=%d\n",
				rr.Workload, rr.Trace, rr.Correct, rr.Attempted, rr.Failed)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	case *child:
		res := runRound(roundSpec{workload: *workload, seed: *seed, scale: 1, seconds: *seconds,
			traced: traced, round: *round, spans: *spans})
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := workloadByName(*workload); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	res, err := runRounds(names, *seed, *seconds/rounds, traced, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *out != "" {
		if err := writeResult(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	ok := true
	for _, name := range names {
		ok = ok && res.Workloads[name].Correct
	}
	if *workload != "" {
		printTable(os.Stderr, res, names)
		w := res.Workloads[*workload]
		line, _ := json.Marshal(resultLine{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed, Metrics: w.Metrics})
		fmt.Println(string(line))
	} else {
		printTable(os.Stdout, res, names)
	}
	if !ok {
		return 1
	}
	return 0
}

// resultLine is the one-line result of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rounds is the number of rounds per workload; the bounds in
// BENCHMARK.json are calibrated for it.
const rounds = 3

// runRounds runs rounds of every named workload at full scale,
// round-robin across workloads, each round in its own child process.
func runRounds(names []string, seed uint64, roundSeconds float64, traced bool, spans string) (*result, error) {
	byName := make(map[string][]roundResult, len(names))
	timeout := time.Duration(roundSeconds*float64(time.Second)) + 150*time.Second
	for r := 0; r < rounds; r++ {
		for _, name := range names {
			spec := roundSpec{workload: name, seed: seed, scale: 1, seconds: roundSeconds, traced: traced, round: r, spans: spans}
			rr, err := execRound(spec, timeout)
			if err != nil {
				return nil, err
			}
			if rr.Error != "" && !rr.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: %s round %d: %s\n", name, r, rr.Error)
			}
			byName[name] = append(byName[name], rr)
		}
	}
	res := newResult(seed, rounds, roundSeconds, traced)
	for name, rs := range byName {
		res.Workloads[name] = aggregate(rs, traced)
	}
	return res, nil
}

// smoke runs every workload untraced and traced at 1/16 scale, one
// 0.5 s round each, in this process. It fails on any failed op,
// correctness gate or malformed trace, and on a layer metric set under
// a name the catalogue lacks.
func smoke() ([]roundResult, error) {
	var results []roundResult
	var errs []error
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			rr := runRound(roundSpec{workload: wl.name, seed: 1, scale: 16, seconds: 0.5, traced: traced})
			results = append(results, rr)
			if !rr.Correct || rr.Failed > 0 || rr.Attempted == 0 {
				errs = append(errs, fmt.Errorf("%s (trace=%v): correct=%v, %d of %d ops failed: %s",
					wl.name, traced, rr.Correct, rr.Failed, rr.Attempted, rr.Error))
			}
			if traced && (len(rr.spans) == 0 || len(rr.Layer) != len(perLayer)) {
				errs = append(errs, fmt.Errorf("%s: %d spans, %d layer metrics for a catalogue of %d",
					wl.name, len(rr.spans), len(rr.Layer), len(perLayer)))
			}
		}
	}
	return results, errors.Join(errs...)
}

func catalogue(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
