// Package server implements spkadd-serve: an HTTP daemon that
// ingests COO delta frames into per-tenant spkadd Pools and serves
// snapshot sums, built as a robustness layer over the streaming core.
//
// Every failure mode the core makes injectable (internal/faults) or
// reportable (Pool.Health, ShardError, typed context errors) becomes
// an externally observable, gracefully degraded behavior here:
//
//   - Admission control: a push that would block on Pool backpressure
//     past Config.QueueWait is refused with 429 + Retry-After instead
//     of wedging the connection; client disconnects propagate through
//     PushContext/SumContext, so a gone client can never pin a shard.
//   - Health taxonomy: degraded tenants (a shard dropped a batch and
//     is retrying its way back) KEEP serving — responses carry a
//     Warning header and per-shard detail. Poisoned tenants (a shard's
//     workspace was quarantined by a panic) flip /readyz and refuse
//     ingest with 503 while snapshots still serve the last good sums.
//   - Graceful drain: BeginDrain stops admission, Drain closes every
//     tenant pool under the caller's deadline and reports stragglers
//     (shards whose queues did not empty in time) so the operator
//     knows exactly what a hard kill would abandon.
//
// See DESIGN.md §12 for the protocol; cmd/spkadd-serve for the
// daemon shell (flags, signals, exit codes).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spkadd/internal/core"
)

// Config configures a Server. The zero value is ready to use.
type Config struct {
	// MaxTenants caps the live tenant count; at the cap a new tenant
	// is admitted only by evicting an expired one. <=0 means 64.
	MaxTenants int
	// IdleTTL evicts tenants idle past it (their unqueried sums are
	// discarded). 0 means 15 minutes; negative disables eviction.
	IdleTTL time.Duration
	// QueueWait bounds how long a push may block on a shard's
	// high-water backpressure before the server refuses it with 429 +
	// Retry-After. 0 means 100ms; this is the admission-control knob.
	QueueWait time.Duration
	// SumWait bounds a snapshot's drain barrier (and a DELETE's
	// per-tenant drain). 0 means 10s.
	SumWait time.Duration
	// MaxDeltaNNZ caps one delta frame's entry count (the request
	// body is capped to the matching byte size). 0 means 1<<22 — a
	// 64MB frame; negative means uncapped.
	MaxDeltaNNZ int
	// Pool configures each tenant's core.Pool. FaultZone and
	// Add.Stats are owned by the registry and overwritten.
	Pool core.PoolOptions
	// Logf, when set, receives one line per notable server event
	// (evictions, rejected pushes, drain progress). Nil discards.
	Logf func(format string, args ...any)
}

func (c Config) maxTenants() int {
	if c.MaxTenants <= 0 {
		return 64
	}
	return c.MaxTenants
}

func (c Config) idleTTL() time.Duration {
	if c.IdleTTL == 0 {
		return 15 * time.Minute
	}
	return c.IdleTTL
}

func (c Config) queueWait() time.Duration {
	if c.QueueWait <= 0 {
		return 100 * time.Millisecond
	}
	return c.QueueWait
}

func (c Config) sumWait() time.Duration {
	if c.SumWait <= 0 {
		return 10 * time.Second
	}
	return c.SumWait
}

func (c Config) maxDeltaNNZ() int {
	if c.MaxDeltaNNZ == 0 {
		return 1 << 22
	}
	return c.MaxDeltaNNZ
}

// Server is the spkadd-serve HTTP handler plus its tenant registry
// and drain machinery. Create with New, mount as an http.Handler,
// and call BeginDrain/Drain on shutdown.
type Server struct {
	cfg Config
	reg *registry
	mux *http.ServeMux

	draining atomic.Bool
	started  time.Time

	janitorStop chan struct{}
	janitorDone chan struct{}

	// HTTP metrics: requests by status class, admission rejections.
	req2xx, req4xx, req5xx atomic.Int64 //spkadd:atomic
	rejected               atomic.Int64 //spkadd:atomic
}

// New returns a Server and starts its eviction janitor (stopped by
// Drain). The zero Config is ready to use.
func New(cfg Config) *Server {
	norm := cfg
	norm.MaxTenants = cfg.maxTenants()
	norm.IdleTTL = cfg.idleTTL()
	norm.QueueWait = cfg.queueWait()
	norm.SumWait = cfg.sumWait()
	norm.MaxDeltaNNZ = cfg.maxDeltaNNZ()
	s := &Server{
		cfg:         norm,
		reg:         newRegistry(norm),
		mux:         http.NewServeMux(),
		started:     time.Now(),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/deltas", s.handlePush)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/sum", s.handleSum)
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go s.janitor()
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// janitor periodically evicts idle tenants until drain begins.
//
//spkadd:allow(ctxblock) background sweeper: lives until drain, released by janitorStop
func (s *Server) janitor() {
	defer close(s.janitorDone)
	ttl := s.cfg.IdleTTL
	if ttl <= 0 {
		<-s.janitorStop
		return
	}
	period := ttl / 2
	if period > 30*time.Second {
		period = 30 * time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if n := s.reg.sweep(); n > 0 {
				s.logf("evicted %d idle tenant(s)", n)
			}
		case <-s.janitorStop:
			return
		}
	}
}

// ServeHTTP implements http.Handler, counting status classes for
// /metrics on the way through.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &codeWriter{ResponseWriter: w}
	s.mux.ServeHTTP(cw, r)
	switch c := cw.code(); {
	case c >= 500:
		s.req5xx.Add(1)
	case c >= 400:
		s.req4xx.Add(1)
	default:
		s.req2xx.Add(1)
	}
}

// codeWriter records the response status for the metrics counters.
type codeWriter struct {
	http.ResponseWriter
	status int
}

func (w *codeWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *codeWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// shardHealthJSON is the wire shape of one shard's health detail,
// attached to snapshot responses, health endpoints and drain reports.
type shardHealthJSON struct {
	Shard        int    `json:"shard"`
	Col0         int    `json:"col0"`
	Col1         int    `json:"col1"`
	State        string `json:"state"`
	Error        string `json:"error,omitempty"`
	Pending      int    `json:"pending,omitempty"`
	PendingBytes int64  `json:"pending_bytes,omitempty"`
	Dropped      int64  `json:"dropped,omitempty"`
}

func healthJSON(hs []core.ShardHealth) []shardHealthJSON {
	out := make([]shardHealthJSON, len(hs))
	for i, h := range hs {
		out[i] = shardHealthJSON{
			Shard: h.Shard, Col0: h.Col0, Col1: h.Col1,
			State:   h.State.String(),
			Pending: h.Pending, PendingBytes: h.PendingBytes,
			Dropped: h.Dropped,
		}
		if h.Err != nil {
			out[i].Error = h.Err.Error()
		}
	}
	return out
}

// warnHeader attaches an RFC 7234 Warning header describing the
// tenant's non-OK shards: code 110 ("response is stale") because the
// affected column ranges serve their last good sum.
func warnHeader(w http.ResponseWriter, t *tenant, hs []core.ShardHealth) {
	for _, h := range hs {
		if h.State != core.HealthOK {
			w.Header().Add("Warning", fmt.Sprintf(`110 spkadd "tenant %s shard %d [%d,%d) %s"`,
				t.name, h.Shard, h.Col0, h.Col1, h.State))
		}
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]any{"error": err.Error()})
}

// retryAfter sets Retry-After from the wait that was exhausted,
// rounded up to a whole second (the header's resolution).
func retryAfter(w http.ResponseWriter, wait time.Duration) {
	secs := int(wait.Seconds())
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// handlePush is the ingest path: decode, admit, push with a bounded
// backpressure wait.
//
//	202 Accepted       absorbed (Warning header while degraded)
//	400 / 409 / 413    malformed frame / wrong dims / too large
//	408                client went away while we waited
//	429 + Retry-After  backpressure outlasted Config.QueueWait
//	503 + Retry-After  poisoned tenant, tenant cap, or draining
func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	name := r.PathValue("tenant")
	cap := s.cfg.MaxDeltaNNZ
	if cap > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, wireHeaderLen+int64(cap)*wireEntryLen)
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("%w: body exceeds %d bytes", ErrWireTooLarge, mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	}
	delta, err := DecodeDelta(data, cap)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrWireTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	t, err := s.reg.getOrCreate(name, delta.Rows, delta.Cols)
	if err != nil {
		switch {
		case errors.Is(err, ErrTenantDims):
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, ErrTenantName):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, ErrTenantCap):
			retryAfter(w, s.cfg.IdleTTL)
			writeError(w, http.StatusServiceUnavailable, err)
		default: // ErrDraining
			writeError(w, http.StatusServiceUnavailable, err)
		}
		return
	}
	worst, hs := t.health()
	if worst == core.HealthPoisoned {
		// Ingesting into a poisoned tenant would silently discard the
		// poisoned shards' slices; refuse instead so the client knows.
		t.rejected.Add(1)
		s.rejected.Add(1)
		warnHeader(w, t, hs)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":  "tenant poisoned: ingest refused; snapshots still serve the last good sums",
			"tenant": t.name,
			"shards": healthJSON(hs),
		})
		return
	}

	// The admission wait: the pool may block the push at a shard's
	// high-water mark. The client's own disconnect/deadline propagates
	// through r.Context(); the server adds QueueWait on top so a flood
	// turns into fast 429s instead of a convoy of wedged connections.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueueWait)
	defer cancel()
	err = t.pool.PushContext(ctx, delta.ToCSC())
	switch {
	case err == nil:
		t.pushes.Add(1)
		t.pushEntries.Add(int64(delta.NNZ()))
		t.touch()
		if worst != core.HealthOK {
			warnHeader(w, t, hs)
		}
		writeJSON(w, http.StatusAccepted, map[string]any{
			"tenant": t.name, "k": t.pool.K(),
		})
	case errors.Is(err, core.ErrCanceled) || errors.Is(err, core.ErrDeadline):
		t.rejected.Add(1)
		s.rejected.Add(1)
		if r.Context().Err() != nil {
			// The client gave up first; it likely won't read this.
			writeError(w, http.StatusRequestTimeout, err)
			return
		}
		retryAfter(w, s.cfg.QueueWait)
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("backpressure: push queued longer than %v: %w", s.cfg.QueueWait, err))
	case errors.Is(err, core.ErrPoolClosed):
		// Evicted or drained between lookup and push.
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// handleSum is the snapshot path: barrier the tenant's reducers and
// return the stitched sum. Degraded/poisoned tenants still serve —
// their stale column ranges are flagged by a Warning header and the
// per-shard health detail.
//
//	200                  the snapshot (JSON envelope, or raw frame
//	                     with ?format=wire)
//	404                  unknown tenant (reads never create tenants)
//	408                  client went away while the barrier drained
//	503 + Retry-After    the barrier outlasted Config.SumWait
func (s *Server) handleSum(w http.ResponseWriter, r *http.Request) {
	t := s.reg.get(r.PathValue("tenant"))
	if t == nil {
		writeError(w, http.StatusNotFound, ErrTenantUnknown)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SumWait)
	defer cancel()
	sum, err := t.pool.SumContext(ctx)
	if sum == nil && err != nil {
		if r.Context().Err() != nil {
			writeError(w, http.StatusRequestTimeout, err)
			return
		}
		retryAfter(w, s.cfg.SumWait)
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("snapshot barrier outlasted %v: %w", s.cfg.SumWait, err))
		return
	}
	t.sums.Add(1)
	t.touch()
	_, hs := t.health()
	warnHeader(w, t, hs)
	if r.URL.Query().Get("format") == "wire" {
		w.Header().Set("Content-Type", "application/x-spkadd-delta")
		w.Header().Set("X-Spkadd-K", strconv.Itoa(t.pool.K()))
		if detail, jerr := json.Marshal(healthJSON(hs)); jerr == nil {
			w.Header().Set("X-Spkadd-Health", string(detail))
		}
		w.Write(EncodeCSC(sum))
		return
	}
	resp := map[string]any{
		"tenant": t.name,
		"rows":   sum.Rows,
		"cols":   sum.Cols,
		"nnz":    sum.NNZ(),
		"k":      t.pool.K(),
		"shards": healthJSON(hs),
	}
	if r.URL.Query().Get("entries") != "false" {
		entries := make([][3]float64, 0, sum.NNZ())
		for j := 0; j < sum.Cols; j++ {
			rows, vals := sum.ColRows(j), sum.ColVals(j)
			for i := range rows {
				entries = append(entries, [3]float64{float64(rows[i]), float64(j), float64(vals[i])})
			}
		}
		resp["entries"] = entries
	}
	if err != nil {
		resp["degraded"] = err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDelete drains and removes one tenant: its pool is closed
// under the SumWait deadline and the outcome reported, so an operator
// can retire a tenant without a full-process drain.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	t := s.reg.remove(r.PathValue("tenant"))
	if t == nil {
		writeError(w, http.StatusNotFound, ErrTenantUnknown)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SumWait)
	defer cancel()
	d := drainTenant(ctx, t)
	status := http.StatusOK
	if d.Abandoned {
		status = http.StatusAccepted // shutdown continues in the background
	}
	writeJSON(w, status, map[string]any{
		"tenant":     t.name,
		"abandoned":  d.Abandoned,
		"stragglers": healthJSON(d.Stragglers),
		"error":      errString(d.Err),
	})
}

// handleTenants lists every live tenant with its health summary.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	type row struct {
		Tenant string `json:"tenant"`
		Rows   int    `json:"rows"`
		Cols   int    `json:"cols"`
		K      int    `json:"k"`
		State  string `json:"state"`
		Pushes int64  `json:"pushes"`
		Sums   int64  `json:"sums"`
	}
	ts := s.reg.list()
	rows := make([]row, len(ts))
	for i, t := range ts {
		worst, _ := t.health()
		rows[i] = row{
			Tenant: t.name, Rows: t.rows, Cols: t.cols, K: t.pool.K(),
			State: worst.String(), Pushes: t.pushes.Load(), Sums: t.sums.Load(),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": rows})
}

// handleHealthz is liveness plus the full health inventory: always
// 200 while the process serves, with per-tenant, per-shard states in
// the body and Warning headers for every non-OK shard.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	worst := core.HealthOK
	type entry struct {
		State  string            `json:"state"`
		Shards []shardHealthJSON `json:"shards"`
	}
	tenants := map[string]entry{}
	for _, t := range s.reg.list() {
		tw, hs := t.health()
		if tw > worst {
			worst = tw
		}
		warnHeader(w, t, hs)
		tenants[t.name] = entry{State: tw.String(), Shards: healthJSON(hs)}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   worst.String(),
		"draining": s.draining.Load(),
		"uptime":   time.Since(s.started).String(),
		"tenants":  tenants,
	})
}

// handleReadyz is readiness: 503 while draining or while any tenant
// is poisoned (a poisoned tenant refuses ingest, so a load balancer
// should stop routing floods here), 200 otherwise. Degraded tenants
// do not flip readiness — they are still doing useful work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var poisoned []string
	for _, t := range s.reg.list() {
		if worst, _ := t.health(); worst == core.HealthPoisoned {
			poisoned = append(poisoned, t.name)
		}
	}
	ready := !s.draining.Load() && len(poisoned) == 0
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ready":    ready,
		"draining": s.draining.Load(),
		"poisoned": poisoned,
	})
}

// TenantDrain is one tenant's drain outcome.
type TenantDrain struct {
	Tenant string
	// Abandoned: the drain deadline fired before the tenant's
	// reducers emptied their queues; Stragglers lists the shards
	// still holding work (the pool keeps shutting down behind us).
	Abandoned  bool
	Stragglers []core.ShardHealth
	// Err carries the pool's shard errors (degraded/poisoned) for a
	// drain that did complete; nil for a clean tenant.
	Err error
}

type tenantDrain = TenantDrain

// DrainReport summarizes a Drain: every tenant's outcome plus the
// rolled-up verdict the daemon turns into its exit code.
type DrainReport struct {
	Tenants   []TenantDrain
	Abandoned int // tenants whose queues did not empty in time
	Unhealthy int // tenants that drained but carried shard errors
}

// Clean reports whether nothing was abandoned: every pushed delta
// either reached its running sum or was already accounted for by a
// reported shard failure.
func (r DrainReport) Clean() bool { return r.Abandoned == 0 }

// BeginDrain flips the server into draining: /readyz goes 503 and
// every subsequent push is refused with 503, while snapshots, health
// and metrics keep serving. Idempotent; safe before or after the
// listener stops.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.logf("drain: admission stopped")
		close(s.janitorStop)
	}
}

// Drain closes every tenant pool under ctx and reports per-tenant
// outcomes. Call after the HTTP listener has stopped accepting (or at
// least after BeginDrain, which fails new pushes): a pool close
// linearizes with pushes, so in-flight requests either complete
// before their tenant's cut or fail with 503. Tenants drain
// concurrently — the deadline bounds the whole drain, not each
// tenant in turn.
func (s *Server) Drain(ctx context.Context) DrainReport {
	s.BeginDrain()
	<-s.janitorDone
	tenants := s.reg.close()
	results := make([]TenantDrain, len(tenants))
	var wg sync.WaitGroup
	for i, t := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = drainTenant(ctx, t)
		}()
	}
	wg.Wait()
	rep := DrainReport{Tenants: results}
	for _, d := range results {
		switch {
		case d.Abandoned:
			rep.Abandoned++
			s.logf("drain: tenant %s ABANDONED with %d straggler shard(s)", d.Tenant, len(d.Stragglers))
		case d.Err != nil:
			rep.Unhealthy++
			s.logf("drain: tenant %s drained with shard errors: %v", d.Tenant, d.Err)
		default:
			s.logf("drain: tenant %s clean", d.Tenant)
		}
	}
	return rep
}

// Tenant returns the named tenant's pool for in-process verification
// (tests and the firehose example's self-check); nil if absent.
func (s *Server) Tenant(name string) *core.Pool {
	if t := s.reg.get(name); t != nil {
		return t.pool
	}
	return nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
