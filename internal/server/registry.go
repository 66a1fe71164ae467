package server

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spkadd/internal/core"
)

// The tenant registry is lazy: a tenant springs into existence on its
// first delta (with that delta's dimensions) and is evicted after
// sitting idle past the TTL, so the daemon's footprint tracks the
// working set instead of the historical tenant population. A hard
// tenant-count cap bounds the worst case; when the cap is hit the
// registry first tries to evict an expired tenant and only then
// refuses.
//
// Each tenant owns one core.Pool and one OpStats, plus the serving
// counters the metrics endpoint exports. Tenants are numbered in
// creation order; the ordinal, scaled by faultZoneStride, becomes the
// pool's FaultZone, so a chaos schedule can target exactly one
// tenant's shards in a multi-tenant process (see internal/faults).

// faultZoneStride separates tenants' fault-injection key ranges. It
// only needs to exceed the per-pool shard count; 2^20 leaves room for
// any plausible configuration.
const faultZoneStride = 1 << 20

// tenantNameRE validates tenant names: short, path- and label-safe.
var tenantNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// Registry errors, mapped to status codes by the handler layer.
var (
	// ErrTenantName: the name fails tenantNameRE.
	ErrTenantName = errors.New("spkadd/server: invalid tenant name")
	// ErrTenantCap: the registry is full and nothing was evictable.
	ErrTenantCap = errors.New("spkadd/server: tenant capacity reached")
	// ErrTenantDims: a delta's dimensions disagree with the tenant's.
	ErrTenantDims = errors.New("spkadd/server: delta dimensions disagree with tenant")
	// ErrTenantUnknown: a read-only endpoint named a tenant that does
	// not exist (reads never create tenants).
	ErrTenantUnknown = errors.New("spkadd/server: unknown tenant")
	// ErrDraining: the server is draining and accepts no new work.
	ErrDraining = errors.New("spkadd/server: draining")
)

// tenant is one name's aggregation state plus serving counters.
type tenant struct {
	name       string
	id         int64
	rows, cols int
	pool       *core.Pool
	stats      *core.OpStats
	created    time.Time

	lastUsed atomic.Int64 //spkadd:atomic unix nanos of the last push or sum

	// Serving counters for /metrics.
	pushes      atomic.Int64 //spkadd:atomic
	pushEntries atomic.Int64 //spkadd:atomic
	sums        atomic.Int64 //spkadd:atomic
	rejected    atomic.Int64 //spkadd:atomic pushes refused: backpressure, poisoned, draining
}

func (t *tenant) touch() { t.lastUsed.Store(time.Now().UnixNano()) }

func (t *tenant) idleSince() time.Time { return time.Unix(0, t.lastUsed.Load()) }

// health summarizes the tenant's pool: the worst shard state and the
// full per-shard detail.
func (t *tenant) health() (core.HealthState, []core.ShardHealth) {
	hs := t.pool.Health()
	worst := core.HealthOK
	for _, h := range hs {
		if h.State > worst {
			worst = h.State
		}
	}
	return worst, hs
}

// registry is the lazy tenant map.
type registry struct {
	cfg Config

	mu      sync.RWMutex
	tenants map[string]*tenant
	nextID  int64
	closed  bool

	evictions atomic.Int64 //spkadd:atomic
}

func newRegistry(cfg Config) *registry {
	return &registry{cfg: cfg, tenants: make(map[string]*tenant)}
}

// get returns an existing tenant, or nil.
func (r *registry) get(name string) *tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tenants[name]
}

// getOrCreate returns the named tenant, creating it with the given
// dimensions on first contact. Existing tenants' dimensions must
// match. When the registry is at its cap, one expired tenant is
// evicted to make room; with nothing expired the create fails with
// ErrTenantCap.
func (r *registry) getOrCreate(name string, rows, cols int) (*tenant, error) {
	if t := r.get(name); t != nil {
		if t.rows != rows || t.cols != cols {
			return nil, fmt.Errorf("%w: %s is %dx%d, delta is %dx%d",
				ErrTenantDims, name, t.rows, t.cols, rows, cols)
		}
		return t, nil
	}
	if !tenantNameRE.MatchString(name) {
		return nil, fmt.Errorf("%w: %q", ErrTenantName, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrDraining
	}
	if t := r.tenants[name]; t != nil {
		if t.rows != rows || t.cols != cols {
			return nil, fmt.Errorf("%w: %s is %dx%d, delta is %dx%d",
				ErrTenantDims, name, t.rows, t.cols, rows, cols)
		}
		return t, nil
	}
	if len(r.tenants) >= r.cfg.MaxTenants && !r.evictOneLocked() {
		return nil, fmt.Errorf("%w: %d live tenants", ErrTenantCap, len(r.tenants))
	}
	t := &tenant{
		name: name, id: r.nextID, rows: rows, cols: cols,
		stats:   &core.OpStats{},
		created: time.Now(),
	}
	r.nextID++
	popt := r.cfg.Pool
	popt.FaultZone = t.id * faultZoneStride
	popt.Add.Stats = t.stats
	t.pool = core.NewPool(rows, cols, popt)
	t.touch()
	r.tenants[name] = t
	return t, nil
}

// list returns the tenants sorted by name (a stable order for
// metrics, health reports and tests).
func (r *registry) list() []*tenant {
	r.mu.RLock()
	ts := make([]*tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		ts = append(ts, t)
	}
	r.mu.RUnlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].name < ts[j].name })
	return ts
}

// evictOneLocked removes the longest-idle expired tenant, closing its
// pool in the background (eviction must not block a push on a drain).
// Returns whether a slot was freed. Callers hold mu.
func (r *registry) evictOneLocked() bool {
	if r.cfg.IdleTTL <= 0 {
		return false
	}
	cutoff := time.Now().Add(-r.cfg.IdleTTL)
	var victim *tenant
	for _, t := range r.tenants {
		if t.idleSince().Before(cutoff) && (victim == nil || t.idleSince().Before(victim.idleSince())) {
			victim = t
		}
	}
	if victim == nil {
		return false
	}
	delete(r.tenants, victim.name)
	r.evictions.Add(1)
	go victim.pool.Close()
	return true
}

// sweep evicts every tenant idle past the TTL; the janitor calls it
// periodically. Returns how many were evicted.
func (r *registry) sweep() int {
	if r.cfg.IdleTTL <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-r.cfg.IdleTTL)
	r.mu.Lock()
	var victims []*tenant
	for name, t := range r.tenants {
		if t.idleSince().Before(cutoff) {
			delete(r.tenants, name)
			victims = append(victims, t)
		}
	}
	r.mu.Unlock()
	for _, t := range victims {
		r.evictions.Add(1)
		t.pool.Close()
	}
	return len(victims)
}

// remove detaches the named tenant so its pool can be drained by the
// caller; nil if absent.
func (r *registry) remove(name string) *tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tenants[name]
	delete(r.tenants, name)
	return t
}

// close marks the registry closed (no new tenants) and returns the
// remaining tenants, leaving the map intact so health and metrics
// endpoints keep answering during the drain.
func (r *registry) close() []*tenant {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	return r.list()
}

// drainTenant closes one tenant's pool under ctx and classifies the
// outcome for the drain report.
func drainTenant(ctx context.Context, t *tenant) tenantDrain {
	d := tenantDrain{Tenant: t.name}
	err := t.pool.CloseContext(ctx)
	if err != nil && (errors.Is(err, core.ErrCanceled) || errors.Is(err, core.ErrDeadline)) {
		// The deadline fired before the reducers finished: report the
		// shards still holding queued work.
		d.Abandoned = true
		for _, h := range t.pool.Health() {
			if h.Pending > 0 {
				d.Stragglers = append(d.Stragglers, h)
			}
		}
		return d
	}
	d.Err = err // sticky shard errors (degraded/poisoned), or nil
	return d
}
