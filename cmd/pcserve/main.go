// Command pcserve runs the sharded sweep service: an HTTP/JSON front end for
// the prefetching/caching algorithms and the experiment suite.
//
// Usage:
//
//	pcserve                      # serve on :8080 with one shard per CPU
//	pcserve -addr :9090          # serve on another address
//	pcserve -shards 4 -cache 256 # 4 worker shards, 256-entry result cache
//	pcserve -queue 128           # shed with 503 beyond 128 queued per shard
//	pcserve -timeout 30s         # fail schedule computations with 504 past 30s
//	pcserve -solver flat         # solve schedule-request LPs on the flat path
//	pcserve -drain 15s           # advertise not-ready for 15s before shutdown
//
// Endpoints:
//
//	POST /v1/schedule   compute one schedule (see service.ScheduleRequest)
//	POST /v1/sweep      run named experiments; output matches `pcbench -json`
//	GET  /v1/experiments  list experiment identifiers and titles
//	GET  /v1/stats      cache/shard/robustness counters
//	GET  /healthz       liveness probe (200 while the process runs, even draining)
//	GET  /readyz        readiness probe (503 while draining; steer traffic away)
//
// On SIGINT/SIGTERM the server drains before exiting: /readyz flips to 503
// immediately so load balancers (and pcfront's health checker) stop sending
// new work, the -drain interval passes, then in-flight requests get a
// 10-second graceful shutdown.
//
// Example:
//
//	curl -s localhost:8080/v1/schedule -d '{
//	  "strategy": "aggressive",
//	  "workload": {"kind": "zipf", "n": 64, "blocks": 16, "seed": 1},
//	  "k": 8, "f": 4
//	}'
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

	"pfcache/internal/lp"
	"pfcache/internal/service"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 0, "number of worker shards (0 = one per CPU)")
	queue := flag.Int("queue", 0, "per-shard queue depth before requests shed with 503 (0 = default)")
	cacheEntries := flag.Int("cache", 1024, "schedule result cache capacity in entries (0 disables)")
	timeout := flag.Duration("timeout", 0, "server-side deadline per schedule computation, 504 beyond it (0 = none)")
	workers := flag.Int("workers", 0, "experiment pool size for sweeps whose request sets no workers (0 = one per CPU)")
	solver := flag.String("solver", "revised", "LP simplex implementation: revised or flat")
	pricing := flag.String("pricing", "steepest-edge", "revised-simplex pricing rule for schedule requests: steepest-edge or dantzig")
	basis := flag.String("basis", "lu", "revised-simplex basis representation for schedule requests: lu or eta")
	drain := flag.Duration("drain", 2*time.Second, "not-ready interval between the shutdown signal and closing the listener")
	flag.Parse()

	method, err := lp.ParseMethod(*solver)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pricingRule, err := lp.ParsePricing(*pricing)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	basisMethod, err := lp.ParseBasis(*basis)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	srv := service.NewServer(service.Options{
		Shards:          *shards,
		QueueDepth:      *queue,
		CacheEntries:    *cacheEntries,
		ScheduleTimeout: *timeout,
		Solver:          method,
		Pricing:         pricingRule,
		Basis:           basisMethod,
		Workers:         *workers,
	})
	defer srv.Close()

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv,
		// Slow-client bounds: a peer that trickles its headers or parks an
		// idle connection cannot pin a goroutine forever.  Write timeouts
		// stay unset — sweeps legitimately stream for minutes.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("pcserve listening on %s (shards=%d cache=%d solver=%s)",
		*addr, srv.Stats().Shards, *cacheEntries, method)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Print(err)
			return 1
		}
	case sig := <-sigc:
		// Drain first: readiness flips to 503 while the listener stays open,
		// so health checkers route traffic away before connections die.
		log.Printf("received %v, draining for %v before shutdown", sig, *drain)
		srv.BeginDrain()
		time.Sleep(*drain)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Print(err)
			return 1
		}
	}
	return 0
}
