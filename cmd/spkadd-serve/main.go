// Command spkadd-serve is the spkadd aggregation daemon: it ingests
// COO delta frames over HTTP into per-tenant streaming Pools and
// serves snapshot sums, health, and metrics. See DESIGN.md §12 for
// the protocol and internal/server for the handler contracts.
//
// Overload and failure behavior, by design:
//
//   - Backpressure past -queue-wait answers 429 + Retry-After.
//   - A degraded tenant keeps serving with Warning headers; a
//     poisoned tenant flips /readyz and refuses ingest with 503.
//   - SIGINT/SIGTERM triggers a graceful drain: stop accepting,
//     flush every tenant pool under -drain-deadline, report
//     stragglers, and exit 1 if any tenant's queued work had to be
//     abandoned (so orchestrators can tell a lossy shutdown from a
//     clean one). A second signal aborts immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spkadd/internal/core"
	"spkadd/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("spkadd-serve", flag.ExitOnError)
	var (
		addr          = fs.String("addr", ":8471", "listen address")
		shards        = fs.Int("shards", 0, "column shards per tenant pool (0 = min(GOMAXPROCS, cols))")
		budgetMB      = fs.Int("budget-mb", 0, "per-tenant reduction budget in MiB (0 = 256)")
		maxRetries    = fs.Int("max-retries", 2, "reduction retries before a shard degrades")
		maxTenants    = fs.Int("max-tenants", 0, "live tenant cap (0 = 64)")
		idleTTL       = fs.Duration("idle-ttl", 0, "evict tenants idle past this (0 = 15m, negative disables)")
		queueWait     = fs.Duration("queue-wait", 0, "max backpressure wait before 429 (0 = 100ms)")
		sumWait       = fs.Duration("sum-wait", 0, "max snapshot barrier wait before 503 (0 = 10s)")
		drainDeadline = fs.Duration("drain-deadline", 20*time.Second, "graceful shutdown budget on SIGTERM")
		maxDeltaNNZ   = fs.Int("max-delta-nnz", 0, "entry cap per delta frame (0 = 1<<22, negative uncapped)")
		quiet         = fs.Bool("quiet", false, "suppress per-event logging")
	)
	fs.Parse(args)

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	srv := server.New(server.Config{
		MaxTenants:  *maxTenants,
		IdleTTL:     *idleTTL,
		QueueWait:   *queueWait,
		SumWait:     *sumWait,
		MaxDeltaNNZ: *maxDeltaNNZ,
		Pool: core.PoolOptions{
			Shards:      *shards,
			BudgetBytes: int64(*budgetMB) << 20,
			MaxRetries:  *maxRetries,
		},
		Logf: logf,
	})
	hs := &http.Server{Addr: *addr, Handler: srv}

	// First SIGINT/SIGTERM starts the graceful drain; a second one
	// aborts the process (stop catching and re-raise semantics).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("spkadd-serve listening on %s", *addr)

	select {
	case err := <-errc:
		log.Printf("listener failed: %v", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process outright
	log.Printf("signal received; draining (deadline %v)", *drainDeadline)

	dctx, cancel := context.WithTimeout(context.Background(), *drainDeadline)
	defer cancel()
	// Refuse new work first, then stop the listener (in-flight
	// requests finish), then flush every tenant pool.
	srv.BeginDrain()
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	rep := srv.Drain(dctx)
	for _, d := range rep.Tenants {
		switch {
		case d.Abandoned:
			log.Printf("drain: tenant %s ABANDONED %d straggler shard(s):", d.Tenant, len(d.Stragglers))
			for _, h := range d.Stragglers {
				log.Printf("  shard %d (columns [%d,%d)): %d piece(s) unreduced", h.Shard, h.Col0, h.Col1, h.Pending)
			}
		case d.Err != nil:
			log.Printf("drain: tenant %s drained unhealthy: %v", d.Tenant, d.Err)
		}
	}
	if !rep.Clean() {
		log.Printf("drain ABANDONED work in %d of %d tenant(s)", rep.Abandoned, len(rep.Tenants))
		return 1
	}
	msg := "clean"
	if rep.Unhealthy > 0 {
		msg = fmt.Sprintf("complete (%d tenant(s) carried shard errors)", rep.Unhealthy)
	}
	log.Printf("drain %s: %d tenant(s)", msg, len(rep.Tenants))
	return 0
}
