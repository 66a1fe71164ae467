package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"spkadd"
	"spkadd/internal/generate"
	"spkadd/internal/server"
)

const (
	// ingestClients is the number of closed-loop client connections:
	// one per CPU of the 2-vCPU reference host.
	ingestClients = 2
	// snapshotEvery: client 0 reads a wire snapshot after every 64th
	// of its pushes.
	snapshotEvery = 64
	// queueWait and maxDeltaNNZ are the server's defaults, which the
	// in-process replay applies to its own pushes.
	queueWait   = 100 * time.Millisecond
	maxDeltaNNZ = 1 << 22
)

// ingest drives the spkadd-serve handler over loopback HTTP. A fixed
// set of delta frames is pushed once during setup and then cycled, so
// the tenant's running sum keeps a constant size while every push
// still goes through decode, COO to CSC and Pool.PushContext.
type ingest struct {
	rows, cols int
	coos       []*spkadd.COO
	frames     [][]byte
	counts     []int64 // accepted pushes per frame: the reference ledger

	srv     *server.Server
	hs      *httptest.Server
	client  *http.Client
	pushURL string
	sumURL  string

	replayErr error
}

func setupIngest(seed uint64, scale int) (instance, error) {
	nFrames := 256 / scale
	g := &ingest{rows: 1 << 16, cols: 256 / scale, counts: make([]int64, nFrames)}
	for f := 0; f < nFrames; f++ {
		m := generate.ER(generate.Opts{Rows: g.rows, Cols: g.cols, NNZPerCol: 16, Seed: seed + uint64(f)*0x9E3779B97F4A7C15})
		c := &spkadd.COO{Rows: g.rows, Cols: g.cols, Entries: m.Triples()}
		for i := range c.Entries {
			// Multiples of 1/16 keep every sum the pool forms exact.
			c.Entries[i].Val = float64(1+(i+f)%16) / 16
		}
		g.coos = append(g.coos, c)
		g.frames = append(g.frames, server.EncodeDelta(c))
	}
	g.srv = server.New(server.Config{})
	g.hs = httptest.NewServer(g.srv)
	g.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: ingestClients,
		MaxConnsPerHost:     ingestClients,
	}}
	base := g.hs.URL + "/v1/tenants/bench"
	g.pushURL, g.sumURL = base+"/deltas", base+"/sum?format=wire"

	for f := range g.frames {
		if err := g.push(f); err != nil {
			g.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		g.counts[f]++
	}
	var buf bytes.Buffer
	if err := g.snapshot(&buf); err != nil {
		g.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return g, nil
}

func (g *ingest) push(f int) error {
	resp, err := g.client.Post(g.pushURL, "application/x-spkadd-delta", bytes.NewReader(g.frames[f]))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("push: %s", resp.Status)
	}
	return nil
}

// snapshot reads the tenant's sum as a wire frame into buf, reusing
// its storage so the client side allocates little.
func (g *ingest) snapshot(buf *bytes.Buffer) error {
	resp, err := g.client.Get(g.sumURL)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot: %s", resp.Status)
	}
	return nil
}

// run is the closed loop: each client pushes its frames back to back,
// and client 0 also snapshots after every snapshotEvery pushes.
func (g *ingest) run(until time.Time, rec *recorder) {
	recs := make([]recorder, ingestClients)
	counts := make([][]int64, ingestClients)
	var wg sync.WaitGroup
	for c := range recs {
		counts[c] = make([]int64, len(g.frames))
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.drive(c, until, &recs[c], counts[c])
		}()
	}
	wg.Wait()
	for c := range recs {
		rec.opMS = append(rec.opMS, recs[c].opMS...)
		rec.snapMS = append(rec.snapMS, recs[c].snapMS...)
		rec.addCounts(&recs[c])
		for f, n := range counts[c] {
			g.counts[f] += n
		}
	}
}

func (g *ingest) drive(c int, until time.Time, rec *recorder, counts []int64) {
	var buf bytes.Buffer
	for i, f := 1, c; time.Now().Before(until); i, f = i+1, (f+ingestClients)%len(g.frames) {
		start := time.Now()
		err := g.push(f)
		rec.op(start, int64(g.coos[f].NNZ()), err, false)
		if err == nil {
			counts[f]++
		}
		if c == 0 && i%snapshotEvery == 0 {
			start = time.Now()
			rec.snapshot(start, g.snapshot(&buf))
		}
	}
}

// trace spends the first half of the window on the HTTP loop, for the
// client-side latencies, and the second half replaying the handler's
// call sequence in-process with spans around each layer call. The
// HTTP share of a request is the difference of the two.
func (g *ingest) trace(until time.Time, rec *recorder, tr *tracer, layer map[string]float64) {
	var web recorder
	g.run(time.Now().Add(time.Until(until)/2), &web)
	rec.addCounts(&web)
	layer["server.snapshot_p50_ms"] = percentile(web.snapMS, 50)
	layer["server.snapshot_p90_ms"] = percentile(web.snapMS, 90)

	// The registry builds each tenant's pool from the zero
	// PoolOptions, setting only the fault zone and the stats.
	var st spkadd.OpStats
	pool := spkadd.NewPool(g.rows, g.cols, spkadd.PoolOptions{Add: spkadd.Options{Stats: &st}})
	defer pool.Close()
	counts := make([]int64, len(g.frames))
	var pushes int
	var pendingMax int64
	for i := 0; time.Now().Before(until); i++ {
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		f := i % len(g.frames)
		start := time.Now()
		err := replayPush(t, pool, g.frames[f])
		rec.op(start, int64(g.coos[f].NNZ()), err, t != nil)
		if err != nil {
			continue
		}
		counts[f]++
		pushes++
		if t != nil {
			var pending int64
			for _, h := range pool.Health() {
				pending += h.PendingBytes
			}
			pendingMax = max(pendingMax, pending)
		}
		if pushes%(snapshotEvery*ingestClients) == 0 {
			start = time.Now()
			rec.snapshot(start, replaySum(tr, pool))
		}
	}
	sum, err := pool.Sum()
	if err == nil {
		err = g.verify(sum, counts)
	}
	if err != nil {
		g.replayErr = fmt.Errorf("in-process replay: %w", err)
	}

	mean := func(name string) float64 { return meanOf(durationsMS(tr.spans, name)) }
	layer["core.pool_push_p50_ms"] = percentile(durationsMS(tr.spans, "core.pool_push"), 50)
	layer["core.pool_push_p90_ms"] = percentile(durationsMS(tr.spans, "core.pool_push"), 90)
	layer["core.pool_sum_p50_ms"] = percentile(durationsMS(tr.spans, "core.pool_sum"), 50)
	layer["matrix.to_csc_p50_ms"] = percentile(durationsMS(tr.spans, "matrix.to_csc"), 50)
	layer["server.decode_p50_ms"] = percentile(durationsMS(tr.spans, "server.decode"), 50)
	layer["server.encode_p50_ms"] = percentile(durationsMS(tr.spans, "server.encode"), 50)
	layer["server.http_overhead_push_ms"] = meanOf(web.opMS) - mean("server.decode") - mean("matrix.to_csc") - mean("core.pool_push")
	layer["server.http_overhead_sum_ms"] = meanOf(web.snapMS) - mean("core.pool_sum") - mean("server.encode")
	if pushes > 0 {
		layer["core.pool_reductions_per_push"] = float64(pool.Reductions()) / float64(pushes)
		layer["core.pool_pending_bytes_max"] = float64(pendingMax)
		in := float64(rec.entries - web.entries) // replayed entries
		layer["core.entries_moved_per_entry"] = float64(st.EntriesMoved.Load()) / in
		layer["hashtab.probes_per_entry"] = float64(st.HashProbes.Load()) / in
		layer["spa.touches_per_entry"] = float64(st.SPATouches.Load()) / in
		layer["kheap.ops_per_entry"] = float64(st.HeapOps.Load()) / in
		layer["sched.load_imbalance"] = st.LoadImbalance()
		layer["sched.regions_per_op"] = float64(st.SchedRegions.Load()) / float64(pushes)
		layer["sched.steals_per_op"] = float64(st.Steals.Load()) / float64(pushes)
	}
}

// replayPush is the push handler's call sequence without HTTP.
func replayPush(tr *tracer, pool *spkadd.Pool, frame []byte) error {
	root := tr.begin("op", -1)
	defer tr.end(root)
	sp := tr.begin("server.decode", root)
	c, err := server.DecodeDelta(frame, maxDeltaNNZ)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("matrix.to_csc", root)
	m := c.ToCSC()
	tr.end(sp)
	ctx, cancel := context.WithTimeout(context.Background(), queueWait)
	defer cancel()
	sp = tr.begin("core.pool_push", root)
	err = pool.PushContext(ctx, m)
	tr.end(sp)
	return err
}

// replaySum is the wire-snapshot handler's call sequence without HTTP.
func replaySum(tr *tracer, pool *spkadd.Pool) error {
	root := tr.begin("snapshot", -1)
	defer tr.end(root)
	sp := tr.begin("core.pool_sum", root)
	sum, err := pool.SumContext(context.Background())
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("server.encode", root)
	if len(server.EncodeCSC(sum)) == 0 {
		err = errors.New("empty snapshot frame")
	}
	tr.end(sp)
	return err
}

// check compares the tenant's final snapshot with the sum of every
// accepted push in the client ledger.
func (g *ingest) check() error {
	if g.replayErr != nil {
		return g.replayErr
	}
	var buf bytes.Buffer
	if err := g.snapshot(&buf); err != nil {
		return err
	}
	c, err := server.DecodeDelta(buf.Bytes(), 0)
	if err != nil {
		return err
	}
	return g.verify(c.ToCSC(), g.counts)
}

// verify compares sum with Σ counts[f]·frame_f.
func (g *ingest) verify(sum *spkadd.Matrix, counts []int64) error {
	var ts []spkadd.Triple
	for f, c := range g.coos {
		if counts[f] == 0 {
			continue
		}
		for _, t := range c.Entries {
			t.Val *= float64(counts[f])
			ts = append(ts, t)
		}
	}
	if !sum.EqualTol(spkadd.FromTriples(g.rows, g.cols, ts), 1e-9) {
		return errors.New("snapshot differs from the ledger of accepted pushes")
	}
	return nil
}

func (g *ingest) close() {
	g.client.CloseIdleConnections()
	g.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	g.srv.Drain(ctx)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
