package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spkadd/internal/core"
	"spkadd/internal/faults"
	"spkadd/internal/faults/leakcheck"
	"spkadd/internal/generate"
	"spkadd/internal/matrix"
)

// The server chaos suite: internal/faults schedules armed inside a
// live HTTP server, asserting the daemon-level degradation contracts
// that DESIGN.md §12 promises — poisoning one tenant's shard leaves
// every other tenant bit-exact and serving, backpressure turns floods
// into 429s rather than wedged connections, and drain terminates under
// its deadline whether or not the pool cooperates. All tests run under
// leakcheck: whatever the chaos schedule does, no goroutine survives
// the drain.

// httpPush POSTs one frame over a real connection; returns the status
// and body.
func httpPush(t *testing.T, client *http.Client, base, tenant string, frame []byte) (int, string) {
	t.Helper()
	resp, err := client.Post(base+pushURL(tenant), "application/x-spkadd-delta", bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("push %s: %v", tenant, err)
	}
	defer resp.Body.Close()
	var body strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		body.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, body.String()
}

// httpGet GETs a path over a real connection.
func httpGet(t *testing.T, client *http.Client, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, body.Bytes()
}

// liveServer starts a Server on a real listener and tears everything
// down in an order leakcheck accepts: drain the tenants, close the
// listener, drop idle client connections.
func liveServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *http.Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	client := ts.Client()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
		client.CloseIdleConnections()
	})
	return s, ts, client
}

// TestChaosServerPoisonedTenantIsolation: a PanicInKernel schedule
// keyed to ONE tenant's shard zone poisons exactly that tenant.
// Readiness flips and the tenant refuses ingest, while every other
// tenant keeps absorbing deltas and serves bit-exact sums, and the
// drain still completes cleanly.
func TestChaosServerPoisonedTenantIsolation(t *testing.T) {
	leakcheck.Begin(t)
	s, ts, client := liveServer(t, Config{
		QueueWait: 2 * time.Second,
		SumWait:   5 * time.Second,
		Pool:      core.PoolOptions{Shards: 2},
		Logf:      t.Logf,
	})
	const rows, cols, d = 128, 16, 4
	tenants := []string{"alpha", "beta", "gamma"} // creation order fixes ids 0,1,2
	accepted := map[string][]*matrix.CSC{}
	push := func(name string, seed uint64) {
		t.Helper()
		a := generate.ER(generate.Opts{Rows: rows, Cols: cols, NNZPerCol: d, Seed: seed})
		code, body := httpPush(t, client, ts.URL, name, EncodeCSC(a))
		if code != http.StatusAccepted {
			t.Fatalf("push %s = %d: %s", name, code, body)
		}
		accepted[name] = append(accepted[name], a)
	}
	for i, name := range tenants {
		push(name, uint64(i+1))
	}

	// Poison beta (tenant id 1): its shard 0 reduction sites report
	// key id*faultZoneStride + 1. One kernel panic, then the schedule
	// is spent — the blast radius test is that ONLY beta notices.
	defer faults.Activate(faults.New(31, faults.Rule{
		Point: faults.PanicInKernel, Key: faultZoneStride + 1, Count: 1,
	}))()
	for i, name := range tenants {
		push(name, uint64(10+i))
	}
	// Beta's snapshot forces the reduction that trips the panic; the
	// response still serves (stitched last-good sums) with a Warning.
	code, hdr, _ := httpGet(t, client, ts.URL+"/v1/tenants/beta/sum?entries=false")
	if code != http.StatusOK {
		t.Fatalf("beta sum = %d, want 200 (poisoned tenants still serve snapshots)", code)
	}
	if len(hdr.Values("Warning")) == 0 {
		t.Error("poisoned beta snapshot carries no Warning header")
	}

	// Readiness flips: a poisoned tenant means this instance should
	// stop receiving routed floods.
	code, _, body := httpGet(t, client, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), `"beta"`) {
		t.Errorf("readyz = %d %s, want 503 naming beta", code, body)
	}
	// Liveness does not: the process is healthy, one tenant is not.
	if code, _, body := httpGet(t, client, ts.URL+"/healthz"); code != http.StatusOK ||
		!strings.Contains(string(body), `"status": "poisoned"`) {
		t.Errorf("healthz = %d %s, want 200 with poisoned status", code, body)
	}

	// Beta refuses further ingest with 503 and per-shard detail.
	a := generate.ER(generate.Opts{Rows: rows, Cols: cols, NNZPerCol: d, Seed: 99})
	code, body2 := httpPush(t, client, ts.URL, "beta", EncodeCSC(a))
	if code != http.StatusServiceUnavailable || !strings.Contains(body2, "poisoned") {
		t.Errorf("push to poisoned beta = %d %s, want 503 naming the poison", code, body2)
	}

	// The blast radius: alpha and gamma absorb more work and stay
	// bit-exact against the in-process reference of everything they
	// accepted (generator values are all 1, so addition is exact).
	push("alpha", 20)
	push("gamma", 21)
	for _, name := range []string{"alpha", "gamma"} {
		code, _, wire := httpGet(t, client, ts.URL+"/v1/tenants/"+name+"/sum?format=wire")
		if code != http.StatusOK {
			t.Fatalf("%s sum = %d", name, code)
		}
		got, err := DecodeDelta(wire, 0)
		if err != nil {
			t.Fatalf("%s snapshot decode: %v", name, err)
		}
		if !got.ToCSC().Equal(matrix.ReferenceAdd(accepted[name])) {
			t.Errorf("%s snapshot is not bit-exact after beta's poisoning", name)
		}
	}

	// Metrics carry the story, labeled per tenant.
	_, _, metrics := httpGet(t, client, ts.URL+"/metrics")
	for _, want := range []string{
		`spkadd_tenant_shards_poisoned_total{tenant="beta"} 1`,
		`spkadd_tenant_health{tenant="beta"} 1`,
		`spkadd_tenant_health{tenant="alpha"} 0`,
		`spkadd_tenant_rejected_total{tenant="beta"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Drain completes despite the poisoned tenant: beta drains as
	// unhealthy (its sticky error reported), nothing is abandoned.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep := s.Drain(ctx)
	if !rep.Clean() {
		t.Errorf("drain abandoned %d tenant(s)", rep.Abandoned)
	}
	if rep.Unhealthy == 0 {
		t.Error("drain did not report beta as unhealthy")
	}
	for _, d := range rep.Tenants {
		if d.Tenant == "beta" && d.Err == nil {
			t.Error("beta drained without reporting its poison")
		}
		if d.Tenant != "beta" && d.Err != nil {
			t.Errorf("%s drained with error %v", d.Tenant, d.Err)
		}
	}
}

// TestChaosServerBackpressure429: a SlowReduction schedule wedges the
// single reducer so pushes pile into the shard queue; once the
// high-water mark holds a push past QueueWait, the server answers 429
// with Retry-After instead of hanging the connection — and everything
// it DID accept is in the final sum.
func TestChaosServerBackpressure429(t *testing.T) {
	leakcheck.Begin(t)
	s := newTestServer(t, Config{
		QueueWait: 10 * time.Millisecond,
		SumWait:   30 * time.Second,
		Pool:      core.PoolOptions{Shards: 1, BudgetBytes: 1 << 10},
	})
	deactivate := faults.Activate(faults.New(33, faults.Rule{
		Point: faults.SlowReduction, Key: 1, Delay: 30 * time.Millisecond,
	}))
	var accepted []*matrix.CSC
	var got429, got202 int
	for i := 0; i < 200 && (got429 == 0 || got202 == 0); i++ {
		a := generate.ER(generate.Opts{Rows: 256, Cols: 4, NNZPerCol: 16, Seed: uint64(i + 1)})
		w := do(s, "POST", pushURL("flood"), EncodeCSC(a))
		switch w.Code {
		case http.StatusAccepted:
			accepted = append(accepted, a)
			got202++
		case http.StatusTooManyRequests:
			got429++
			if w.Header().Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("flood push = %d: %s", w.Code, w.Body)
		}
	}
	deactivate()
	if got202 == 0 || got429 == 0 {
		t.Fatalf("flood saw %d accepts and %d rejections; the test needs both", got202, got429)
	}
	t.Logf("flood: %d accepted, %d refused with 429", got202, got429)
	// Every accepted delta — and nothing else — is in the sum.
	if got := fetchSum(t, s, "flood"); !got.Equal(matrix.ReferenceAdd(accepted)) {
		t.Error("sum after the flood is not the exact fold of the accepted deltas")
	}
	if k := s.Tenant("flood").K(); k != got202 {
		t.Errorf("pool absorbed %d deltas, accepted %d", k, got202)
	}
}

// TestChaosServerDrainDuringFlood: concurrent producers hammer a live
// server while it drains. Admission cuts over to 503 atomically (no
// request hangs or errors at the transport level), the producers'
// accepted prefixes survive into pre-close snapshots bit-exactly, and
// the drain report is clean.
func TestChaosServerDrainDuringFlood(t *testing.T) {
	leakcheck.Begin(t)
	s, ts, client := liveServer(t, Config{
		QueueWait: 100 * time.Millisecond,
		SumWait:   10 * time.Second,
		Pool:      core.PoolOptions{Shards: 2},
		Logf:      t.Logf,
	})
	const producers = 4
	const rows, cols, d = 128, 8, 4
	var wg sync.WaitGroup
	acceptedBy := make([][]*matrix.CSC, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tenant := fmt.Sprintf("flood-%d", p)
			for i := 0; ; i++ {
				a := generate.ER(generate.Opts{Rows: rows, Cols: cols, NNZPerCol: d, Seed: uint64(p*1000 + i + 1)})
				resp, err := client.Post(ts.URL+pushURL(tenant), "application/x-spkadd-delta",
					bytes.NewReader(EncodeCSC(a)))
				if err != nil {
					t.Errorf("producer %d transport error: %v", p, err)
					return
				}
				code := resp.StatusCode
				resp.Body.Close()
				switch code {
				case http.StatusAccepted:
					acceptedBy[p] = append(acceptedBy[p], a)
				case http.StatusServiceUnavailable:
					return // drain reached us; stop producing
				default:
					t.Errorf("producer %d push = %d", p, code)
					return
				}
			}
		}(p)
	}
	time.Sleep(50 * time.Millisecond) // let the flood establish
	s.BeginDrain()
	wg.Wait() // every producer saw its 503 and stopped

	// Pre-close snapshots: the accepted prefix of each producer's
	// stream is exactly the tenant's sum.
	for p := 0; p < producers; p++ {
		if len(acceptedBy[p]) == 0 {
			t.Fatalf("producer %d had nothing accepted before the drain", p)
		}
		tenant := fmt.Sprintf("flood-%d", p)
		code, _, wire := httpGet(t, client, ts.URL+"/v1/tenants/"+tenant+"/sum?format=wire")
		if code != http.StatusOK {
			t.Fatalf("%s snapshot during drain = %d", tenant, code)
		}
		got, err := DecodeDelta(wire, 0)
		if err != nil {
			t.Fatalf("%s snapshot decode: %v", tenant, err)
		}
		if !got.ToCSC().Equal(matrix.ReferenceAdd(acceptedBy[p])) {
			t.Errorf("%s snapshot does not equal its accepted prefix", tenant)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep := s.Drain(ctx)
	if !rep.Clean() {
		t.Errorf("drain under flood abandoned %d tenant(s)", rep.Abandoned)
	}
	for _, d := range rep.Tenants {
		if d.Err != nil {
			t.Errorf("tenant %s drained with error %v", d.Tenant, d.Err)
		}
	}
}

// TestChaosServerDrainAbandoned: when the drain deadline cannot be
// met (a stalling chaos schedule pins the reducer), Drain reports the
// tenant abandoned WITH its straggler shards instead of hanging — the
// operator's signal for what a hard kill would lose.
func TestChaosServerDrainAbandoned(t *testing.T) {
	leakcheck.Begin(t)
	s := newTestServer(t, Config{
		QueueWait: time.Second,
		Pool:      core.PoolOptions{Shards: 1, BudgetBytes: 1 << 20},
	})
	deactivate := faults.Activate(faults.New(35, faults.Rule{
		Point: faults.SlowReduction, Key: 1, Delay: 200 * time.Millisecond,
	}))
	defer deactivate()
	for i := 0; i < 4; i++ {
		a := generate.ER(generate.Opts{Rows: 256, Cols: 4, NNZPerCol: 16, Seed: uint64(i + 1)})
		if w := do(s, "POST", pushURL("stuck"), EncodeCSC(a)); w.Code != http.StatusAccepted {
			t.Fatalf("push = %d", w.Code)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	rep := s.Drain(ctx)
	if rep.Clean() || rep.Abandoned != 1 {
		t.Fatalf("drain report = %+v, want exactly one abandoned tenant", rep)
	}
	found := false
	for _, d := range rep.Tenants {
		if d.Tenant == "stuck" && d.Abandoned {
			found = true
			if len(d.Stragglers) == 0 {
				t.Error("abandoned tenant reports no straggler shards")
			}
			for _, h := range d.Stragglers {
				if h.Pending == 0 {
					t.Errorf("straggler shard %d has empty queue", h.Shard)
				}
			}
		}
	}
	if !found {
		t.Fatal("tenant stuck not reported abandoned")
	}
	// Deactivate and let the cleanup drain finish the shutdown; the
	// leakcheck cleanup then proves the abandoned pool still wound
	// down (abandonment is about the deadline, not a leak).
	deactivate()
}
