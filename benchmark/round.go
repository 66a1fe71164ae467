package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// roundSpec names one round: a workload run for seconds, untraced or
// traced, at the given scale.
type roundSpec struct {
	workload string
	seed     uint64
	scale    int // divides the input sizes; above 1 only in the in-process smoke run
	seconds  float64
	traced   bool
	round    int
	spans    string // directory for a traced round's spans; "" keeps them in memory only
}

// spansFile is where a traced round writes its spans as JSON lines.
func (s roundSpec) spansFile() string {
	return filepath.Join(s.spans, fmt.Sprintf("%s-seed%d-round%d.jsonl", s.workload, s.seed, s.round))
}

// runRound runs one round in this process: setup (input generation,
// server start, warm-up), the timed window, then the host probe and the
// correctness gate outside it. The probe runs after the peak RSS is
// read, so its buffers never count toward it.
func runRound(spec roundSpec) roundResult {
	res := roundResult{Workload: spec.workload, Trace: spec.traced}
	w, err := workloadByName(spec.workload)
	if err != nil {
		res.Error = err.Error()
		return res
	}

	start := time.Now()
	inst, err := w.setup(spec.seed, spec.scale)
	if err != nil {
		res.Error = fmt.Sprintf("setup: %v", err)
		return res
	}
	defer inst.close()
	res.SetupS = time.Since(start).Seconds()

	var rec recorder
	var tr *tracer
	alloc0 := allocBytes()
	t0 := time.Now()
	until := t0.Add(time.Duration(spec.seconds * float64(time.Second)))
	if spec.traced {
		tr = newTracer()
		res.Layer = newLayer()
		inst.trace(until, &rec, tr, res.Layer)
	} else {
		inst.run(until, &rec)
	}
	res.TimedS = time.Since(t0).Seconds()
	res.AllocBytes = allocBytes() - alloc0
	res.PeakRSSMB = peakRSSMB()
	res.ProbeMS = hostProbe()
	res.OpMS, res.SnapMS = rec.opMS, rec.snapMS
	res.Entries, res.Attempted, res.Failed = rec.entries, rec.attempted, rec.failed

	res.Correct = true
	if err := inst.check(); err != nil {
		res.Correct = false
		res.Failed++
		res.Error = fmt.Sprintf("correctness: %v", err)
	}
	if tr != nil {
		res.spans = tr.spans
		res.Layer["host.probe_ms"] = res.ProbeMS
		res.Layer["trace.coverage"] = coverage(tr.spans)
		if u := percentile(rec.opMS, 50); u > 0 {
			res.Layer["trace.overhead_frac"] = percentile(rec.tracedMS, 50)/u - 1
		}
		res.Layer["process.alloc_bytes_per_entry"] = float64(res.AllocBytes) / float64(max(rec.entries, 1))
		if err := checkSpans(tr.spans); err != nil {
			res.Correct = false
			res.Error = fmt.Sprintf("trace: %v", err)
		} else if spec.spans != "" {
			if err := writeSpans(spec.spansFile(), tr.spans); err != nil {
				res.Error = err.Error()
			}
		}
	}
	return res
}

// execRound runs one round in a fresh child process (this binary with
// -child, which always runs at scale 1) and decodes the result it
// prints.
func execRound(spec roundSpec, timeout time.Duration) (roundResult, error) {
	self, err := os.Executable()
	if err != nil {
		return roundResult{}, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child",
		"-workload", spec.workload,
		"-seed", strconv.FormatUint(spec.seed, 10),
		"-seconds", strconv.FormatFloat(spec.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(btoi(spec.traced)),
		"-round", strconv.Itoa(spec.round),
		"-spans", spec.spans)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return roundResult{}, fmt.Errorf("round of %s: %w", spec.workload, err)
	}
	var res roundResult
	if err := json.Unmarshal(out, &res); err != nil {
		return roundResult{}, fmt.Errorf("round of %s: decoding its result: %w", spec.workload, err)
	}
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// probeSink keeps the probe's work observable so it is not optimized
// away.
var probeSink uint64

// hostProbe times a fixed 32 MB copy plus an integer-hash loop, the
// median of three. It moves only with the host, not with the code
// under test, so rounds whose probes differ saw different machines.
func hostProbe() float64 {
	src := make([]byte, 32<<20)
	dst := make([]byte, len(src))
	for i := range src {
		src[i] = byte(i)
	}
	ms := make([]float64, 3)
	for r := range ms {
		start := time.Now()
		copy(dst, src)
		h := uint64(r)
		for i := uint64(0); i < 1<<24; i++ {
			h = (h ^ i) * 0x9E3779B97F4A7C15
		}
		probeSink += h + uint64(dst[len(dst)-1-r])
		ms[r] = float64(time.Since(start)) / 1e6
	}
	return median(ms)
}

// allocBytes is the cumulative heap allocation of this process
// (MemStats.TotalAlloc, read without stopping the world).
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is this process's resident-set high-water mark (VmHWM),
// 0 where /proc is unavailable.
func peakRSSMB() float64 {
	kb, _ := procField("/proc/self/status", "VmHWM:")
	n, _ := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	return n / 1024
}

// procField returns the trimmed value after the first line of path
// that starts with key.
func procField(path, key string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strings.TrimSpace(v), nil
		}
	}
	return "", sc.Err()
}
