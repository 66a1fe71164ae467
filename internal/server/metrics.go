package server

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"spkadd/internal/core"
)

// Hand-rolled Prometheus text exposition (format 0.0.4). The daemon
// must stay stdlib-only, and the format is simple enough that a
// client library buys nothing: `# HELP`/`# TYPE` preambles, one
// `name{labels} value` line per sample, label values escaped per the
// spec (backslash, double-quote, newline).

// promEscape escapes a label value for the text exposition format.
func promEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// metricFamily accumulates one metric's samples so families emit
// contiguously (the format requires it).
type metricFamily struct {
	name, help, typ string
	samples         []string
}

type promWriter struct {
	order    []string
	families map[string]*metricFamily
}

func newPromWriter() *promWriter {
	return &promWriter{families: make(map[string]*metricFamily)}
}

func (p *promWriter) family(name, typ, help string) *metricFamily {
	f, ok := p.families[name]
	if !ok {
		f = &metricFamily{name: name, help: help, typ: typ}
		p.families[name] = f
		p.order = append(p.order, name)
	}
	return f
}

// add records one sample; labels alternate key, value.
func (p *promWriter) add(name, typ, help string, value float64, labels ...string) {
	f := p.family(name, typ, help)
	var lb strings.Builder
	if len(labels) > 0 {
		lb.WriteByte('{')
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				lb.WriteByte(',')
			}
			fmt.Fprintf(&lb, `%s="%s"`, labels[i], promEscape(labels[i+1]))
		}
		lb.WriteByte('}')
	}
	f.samples = append(f.samples, fmt.Sprintf("%s%s %g", name, lb.String(), value))
}

func (p *promWriter) writeTo(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	for _, name := range p.order {
		f := p.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.samples {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	w.Write([]byte(b.String()))
}

// handleMetrics exports server-level request counters plus, per
// tenant, the serving counters and the pool's OpStats and health
// gauges — the same numbers the CLI tools print, labeled by tenant so
// one scrape covers the whole registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p := newPromWriter()
	const g, c = "gauge", "counter"

	p.add("spkadd_server_uptime_seconds", g, "Seconds since the server started.",
		time.Since(s.started).Seconds())
	draining := 0.0
	if s.draining.Load() {
		draining = 1
	}
	p.add("spkadd_server_draining", g, "1 while the server is draining (refusing ingest).", draining)
	p.add("spkadd_http_requests_total", c, "HTTP responses by status class.",
		float64(s.req2xx.Load()), "class", "2xx")
	p.add("spkadd_http_requests_total", c, "HTTP responses by status class.",
		float64(s.req4xx.Load()), "class", "4xx")
	p.add("spkadd_http_requests_total", c, "HTTP responses by status class.",
		float64(s.req5xx.Load()), "class", "5xx")
	p.add("spkadd_pushes_rejected_total", c,
		"Pushes refused across all tenants: backpressure 429s, poisoned-tenant and draining 503s.",
		float64(s.rejected.Load()))
	p.add("spkadd_tenant_evictions_total", c, "Tenants evicted after sitting idle past the TTL.",
		float64(s.reg.evictions.Load()))

	tenants := s.reg.list()
	p.add("spkadd_tenants", g, "Live tenants in the registry.", float64(len(tenants)))

	for _, t := range tenants {
		lt := []string{"tenant", t.name}
		p.add("spkadd_tenant_pushes_total", c, "Deltas absorbed per tenant.",
			float64(t.pushes.Load()), lt...)
		p.add("spkadd_tenant_push_entries_total", c, "Nonzero entries absorbed per tenant.",
			float64(t.pushEntries.Load()), lt...)
		p.add("spkadd_tenant_sums_total", c, "Snapshot sums served per tenant.",
			float64(t.sums.Load()), lt...)
		p.add("spkadd_tenant_rejected_total", c, "Pushes refused per tenant.",
			float64(t.rejected.Load()), lt...)
		p.add("spkadd_tenant_k", g, "Deltas currently folded into the tenant's running sum.",
			float64(t.pool.K()), lt...)

		worst, hs := t.health()
		p.add("spkadd_tenant_health", g,
			"Tenant health: 0 ok, 1 degraded (serving, some columns stale), 2 poisoned (ingest refused).",
			float64(worst), lt...)
		var pending, pendingBytes, dropped float64
		shardStates := map[core.HealthState]int{}
		for _, h := range hs {
			pending += float64(h.Pending)
			pendingBytes += float64(h.PendingBytes)
			dropped += float64(h.Dropped)
			shardStates[h.State]++
		}
		p.add("spkadd_tenant_pending_pieces", g, "Queued column pieces awaiting reduction.",
			pending, lt...)
		p.add("spkadd_tenant_pending_bytes", g, "Bytes of queued pieces awaiting reduction.",
			pendingBytes, lt...)
		p.add("spkadd_tenant_dropped_pieces_total", c,
			"Pieces permanently dropped by shards after retry exhaustion or poisoning.",
			dropped, lt...)
		for _, st := range []core.HealthState{core.HealthOK, core.HealthDegraded, core.HealthPoisoned} {
			p.add("spkadd_tenant_shards", g, "Shards by health state.",
				float64(shardStates[st]), "tenant", t.name, "state", st.String())
		}

		// The pool's OpStats, verbatim: the same counters the library's
		// observability layer exposes in-process.
		st := t.stats
		p.add("spkadd_tenant_reductions_total", c, "Shard reductions completed.",
			float64(t.pool.Reductions()), lt...)
		p.add("spkadd_tenant_steals_total", c, "Work-stealing events inside reductions.",
			float64(st.Steals.Load()), lt...)
		p.add("spkadd_tenant_sched_regions_total", c, "Parallel regions executed.",
			float64(st.SchedRegions.Load()), lt...)
		p.add("spkadd_tenant_retries_total", c, "Reduction retries after transient failures.",
			float64(st.Retries.Load()), lt...)
		p.add("spkadd_tenant_panics_recovered_total", c, "Reduction panics recovered (each poisons a shard).",
			float64(st.PanicsRecovered.Load()), lt...)
		p.add("spkadd_tenant_faults_injected_total", c, "Faults injected by the active chaos schedule.",
			float64(st.FaultsInjected.Load()), lt...)
		p.add("spkadd_tenant_shards_degraded_total", c, "OK-to-degraded shard transitions.",
			float64(st.ShardsDegraded.Load()), lt...)
		p.add("spkadd_tenant_shards_recovered_total", c, "Degraded-to-OK shard transitions.",
			float64(st.ShardsRecovered.Load()), lt...)
		p.add("spkadd_tenant_shards_poisoned_total", c, "Shards permanently poisoned by panics.",
			float64(st.ShardsPoisoned.Load()), lt...)
	}
	p.writeTo(w)
}
