package main

import (
	"errors"
	"fmt"
	"time"

	"spkadd"
	"spkadd/internal/generate"
)

// workload is one named input set. setup generates its inputs from the
// seed, builds whatever the timed loop drives and warms it up; scale
// divides the input size (1 is the benchmark, 16 the smoke test).
// BENCHMARK.json and README.md say why each workload is there.
type workload struct {
	name  string
	setup func(seed uint64, scale int) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// run drives the untraced timed loop until the deadline.
	run(until time.Time, rec *recorder)
	// trace drives the traced loop until the deadline, recording spans
	// into tr and filling the layer metrics it can measure.
	trace(until time.Time, rec *recorder, tr *tracer, layer map[string]float64)
	// check is the correctness gate, run once after the timed window.
	check() error
	close()
}

var workloads = []workload{
	{"kadd-er", setupKaddER},
	{"kadd-rmat", setupKaddRMAT},
	{"summa-spgemm", setupSumma},
	{"ingest-http", setupIngest},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// recorder collects what the timed loop measures.
type recorder struct {
	opMS      []float64 // untraced ops
	tracedMS  []float64 // traced ops, for the tracing overhead
	snapMS    []float64
	entries   int64 // entries consumed by successful ops
	attempted int
	failed    int
}

// op records one op that started at start and consumed n entries.
func (r *recorder) op(start time.Time, n int64, err error, traced bool) {
	ms := float64(time.Since(start)) / 1e6
	r.attempted++
	switch {
	case err != nil:
		r.failed++
		return
	case traced:
		r.tracedMS = append(r.tracedMS, ms)
	default:
		r.opMS = append(r.opMS, ms)
	}
	r.entries += n
}

// snapshot records one snapshot read that started at start.
func (r *recorder) snapshot(start time.Time, err error) {
	ms := float64(time.Since(start)) / 1e6
	r.attempted++
	if err != nil {
		r.failed++
		return
	}
	r.snapMS = append(r.snapMS, ms)
}

// addCounts folds another recorder's counts, not its latencies, into r.
func (r *recorder) addCounts(o *recorder) {
	r.entries += o.entries
	r.attempted += o.attempted
	r.failed += o.failed
}

// opFunc runs one op, traced when tr is non-nil, and returns the input
// entries it consumed.
type opFunc func(tr *tracer) (int64, error)

// loop runs op back to back until the deadline. With a tracer, every
// other op is traced so traced and untraced latencies see the same
// host conditions.
func loop(until time.Time, rec *recorder, tr *tracer, op opFunc) {
	for i := 0; time.Now().Before(until); i++ {
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		start := time.Now()
		n, err := op(t)
		rec.op(start, n, err, t != nil)
	}
}

// kadd drives k-way addition of one input collection: one-shot through
// spkadd.Add, or through a resident Adder when adder is set.
type kadd struct {
	in    []*spkadd.Matrix
	nnzIn int64
	adder *spkadd.Adder

	// Traced-op accumulators.
	stats              spkadd.OpStats
	sym, num, unattrib []float64
	nnzOut             int64
	traced             int64
}

func newKadd(in []*spkadd.Matrix, adder *spkadd.Adder) (*kadd, error) {
	k := &kadd{in: in, adder: adder}
	for _, a := range in {
		k.nnzIn += int64(a.NNZ())
	}
	if _, err := k.op(nil); err != nil { // warm-up
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return k, nil
}

func setupKaddER(seed uint64, scale int) (instance, error) {
	in := generate.ERCollection(64, generate.Opts{Rows: 1 << 20, Cols: 512 / scale, NNZPerCol: 64, Seed: seed})
	return newKadd(in, nil)
}

func setupKaddRMAT(seed uint64, scale int) (instance, error) {
	in := generate.RMATCollection(128, generate.Opts{Rows: 1 << 17, Cols: 256 / scale, NNZPerCol: 32, Seed: seed}, generate.Graph500)
	return newKadd(in, spkadd.NewAdder())
}

// add runs one addition; timed selects the AddTimed entry point, which
// also reports the symbolic/numeric split.
func (k *kadd) add(opt spkadd.Options, timed bool) (*spkadd.Matrix, spkadd.PhaseTimings, error) {
	var out *spkadd.Matrix
	var err error
	switch {
	case k.adder != nil && timed:
		return k.adder.AddTimed(k.in, opt)
	case timed:
		return spkadd.AddTimed(k.in, opt)
	case k.adder != nil:
		out, err = k.adder.Add(k.in, opt)
	default:
		out, err = spkadd.Add(k.in, opt)
	}
	return out, spkadd.PhaseTimings{}, err
}

// op is one addition with default Options. Traced ops go through
// AddTimed with OpStats attached; the difference from untraced ops is
// part of the measured tracing overhead.
func (k *kadd) op(tr *tracer) (int64, error) {
	var opt spkadd.Options
	if tr != nil {
		opt.Stats = &k.stats
	}
	root := tr.begin("op", -1)
	sp := tr.begin("core.add", root)
	out, pt, err := k.add(opt, tr != nil)
	tr.end(sp)
	tr.end(root)
	if err != nil || tr == nil {
		return k.nnzIn, err
	}
	addMS := float64(tr.spans[sp].End-tr.spans[sp].Start) / 1e6
	symMS, numMS := float64(pt.Symbolic)/1e6, float64(pt.Numeric)/1e6
	k.sym = append(k.sym, symMS)
	k.num = append(k.num, numMS)
	k.unattrib = append(k.unattrib, addMS-symMS-numMS)
	k.nnzOut = int64(out.NNZ())
	k.traced++
	return k.nnzIn, nil
}

func (k *kadd) run(until time.Time, rec *recorder) { loop(until, rec, nil, k.op) }

func (k *kadd) trace(until time.Time, rec *recorder, tr *tracer, layer map[string]float64) {
	loop(until, rec, tr, k.op)
	if k.traced == 0 {
		return
	}
	in := float64(k.traced * k.nnzIn)
	st := &k.stats
	layer["core.add_ms"] = median(durationsMS(tr.spans, "core.add"))
	layer["core.symbolic_ms"] = median(k.sym)
	layer["core.numeric_ms"] = median(k.num)
	layer["core.unattributed_ms"] = median(k.unattrib)
	layer["core.out_per_in"] = float64(k.nnzOut) / float64(k.nnzIn)
	layer["core.entries_moved_per_entry"] = float64(st.EntriesMoved.Load()) / in
	layer["core.sym_probes_per_entry"] = float64(st.SymProbes.Load()) / in
	layer["hashtab.probes_per_entry"] = float64(st.HashProbes.Load()) / in
	layer["spa.touches_per_entry"] = float64(st.SPATouches.Load()) / in
	layer["kheap.ops_per_entry"] = float64(st.HeapOps.Load()) / in
	layer["sched.load_imbalance"] = st.LoadImbalance()
	layer["sched.steals_per_op"] = float64(st.Steals.Load()) / float64(k.traced)
	layer["sched.regions_per_op"] = float64(st.SchedRegions.Load()) / float64(k.traced)

	// Bytes the paper's I/O model moves per call: every input entry
	// read once per pass (twice under the two-pass engine) and every
	// output entry written once, 12 bytes each for float64. Computed
	// from counts, not measured by hardware counters.
	passes := int64(1)
	if e, ok := st.EngineUsed(); ok && e == spkadd.PhasesTwoPass {
		passes = 2
	}
	bytes := float64(12 * (passes*k.nnzIn + k.nnzOut))
	layer["core.bytes_computed_per_entry"] = bytes / float64(k.nnzIn)
	if s := (median(k.sym) + median(k.num)) / 1e3; s > 0 {
		layer["core.gbps_computed"] = bytes / s / 1e9
	}
}

// check compares one more addition against a sparse triple-sum
// reference (the dense reference would need rows*cols*8 bytes).
func (k *kadd) check() error {
	out, _, err := k.add(spkadd.Options{}, false)
	if err != nil {
		return err
	}
	var ts []spkadd.Triple
	for _, a := range k.in {
		ts = append(ts, a.Triples()...)
	}
	ref := spkadd.FromTriples(k.in[0].Rows, k.in[0].Cols, ts)
	if !out.EqualTol(ref, 1e-9) {
		return errors.New("sum differs from the triple-sum reference")
	}
	return nil
}

func (k *kadd) close() {}

// summa multiplies two protein-similarity-like operands on a simulated
// 8x8 process grid, each process reducing its 8 intermediate products
// with unsorted Hash SpKAdd.
type summa struct {
	a, b *spkadd.Matrix
	cfg  spkadd.SummaConfig

	mul, add, addMax, dist []float64 // traced ops, ms
	rep                    spkadd.SummaReport
}

func setupSumma(seed uint64, scale int) (instance, error) {
	n := 3000 / scale
	s := &summa{
		a:   generate.ProteinLike(n, 128, 32, seed),
		b:   generate.ProteinLike(n, 128, 32, seed^0x9E3779B97F4A7C15),
		cfg: spkadd.SummaConfig{Grid: 8, SpKAdd: spkadd.Hash, Sequential: true},
	}
	if _, err := s.op(nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

func (s *summa) op(tr *tracer) (int64, error) {
	root := tr.begin("op", -1)
	sp := tr.begin("summa.run", root)
	_, rep, err := spkadd.RunSumma(s.a, s.b, s.cfg)
	tr.end(sp)
	tr.end(root)
	if err != nil || tr == nil {
		return rep.IntermediateNNZ, err
	}
	wallMS := float64(tr.spans[sp].End-tr.spans[sp].Start) / 1e6
	mulMS, addMS := float64(rep.LocalMultiplySum)/1e6, float64(rep.SpKAddSum)/1e6
	s.mul = append(s.mul, mulMS)
	s.add = append(s.add, addMS)
	s.addMax = append(s.addMax, float64(rep.SpKAddMax)/1e6)
	s.dist = append(s.dist, wallMS-mulMS-addMS)
	s.rep = rep
	return rep.IntermediateNNZ, nil
}

func (s *summa) run(until time.Time, rec *recorder) { loop(until, rec, nil, s.op) }

func (s *summa) trace(until time.Time, rec *recorder, tr *tracer, layer map[string]float64) {
	loop(until, rec, tr, s.op)
	if len(s.mul) == 0 {
		return
	}
	layer["spgemm.local_multiply_ms"] = median(s.mul)
	layer["summa.spkadd_ms"] = median(s.add)
	layer["summa.spkadd_max_ms"] = median(s.addMax)
	layer["summa.distribute_ms"] = median(s.dist)
	layer["summa.compression_factor"] = s.rep.CompressionFactor
	layer["summa.comm_bytes"] = float64(s.rep.CommVolumeBytes)
}

// check compares one more product against the single-process SpGEMM.
func (s *summa) check() error {
	c, _, err := spkadd.RunSumma(s.a, s.b, s.cfg)
	if err != nil {
		return err
	}
	ref, err := spkadd.Multiply(s.a, s.b, spkadd.MulOptions{})
	if err != nil {
		return err
	}
	if !c.EqualTol(ref, 1e-9) {
		return errors.New("SUMMA product differs from single-process Multiply")
	}
	return nil
}

func (s *summa) close() {}
