// Command pcfront runs the fault-tolerant front tier over a fleet of pcserve
// backends.
//
// Schedule requests are routed by consistent-hashing the instance fingerprint
// across the backends — the same instance always lands on the same backend,
// keeping its response cache and its shard's built models hot — while health
// checks, bounded retries with exponential backoff, and per-backend circuit
// breakers make individual backend failures invisible to clients.  Sweeps fan
// out per-experiment across healthy backends and stream NDJSON result lines
// as each experiment completes.
//
// Usage:
//
//	pcfront -backends http://10.0.0.1:8080,http://10.0.0.2:8080
//	pcfront -addr :8000 -backends ... -attempts 4 -request-timeout 30s
//	pcfront -health-interval 500ms -breaker-threshold 5
//
// Endpoints:
//
//	POST /v1/schedule   route one schedule request to its backend (with retries)
//	POST /v1/sweep      fan experiments out across backends; NDJSON stream
//	GET  /v1/stats      front counters plus per-backend health/breaker state
//	GET  /healthz       liveness probe
//	GET  /readyz        readiness probe (503 when no backend is healthy)
//
// Example (three local backends):
//
//	pcserve -addr :8081 & pcserve -addr :8082 & pcserve -addr :8083 &
//	pcfront -addr :8080 -backends http://localhost:8081,http://localhost:8082,http://localhost:8083
//	curl -s localhost:8080/v1/schedule -d '{
//	  "strategy": "lp-optimal",
//	  "workload": {"kind": "zipf", "n": 64, "blocks": 16, "seed": 1},
//	  "k": 8, "f": 4, "disks": 2
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
	"strings"
	"syscall"
	"time"

	"pfcache/internal/front"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", ":8000", "listen address")
	backends := flag.String("backends", "", "comma-separated pcserve base URLs (required)")
	replicas := flag.Int("replicas", 0, "virtual ring points per backend (0 = default)")
	healthInterval := flag.Duration("health-interval", time.Second, "backend readiness poll period")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive failed probes before a backend is unhealthy")
	restoreThreshold := flag.Int("restore-threshold", 2, "consecutive good probes before an unhealthy backend is restored")
	requestTimeout := flag.Duration("request-timeout", 15*time.Second, "overall deadline per schedule request, across retries")
	attemptTimeout := flag.Duration("attempt-timeout", 5*time.Second, "deadline per single backend attempt")
	attempts := flag.Int("attempts", 0, "max attempts per request across backends (0 = one per backend, min 3)")
	retryBase := flag.Duration("retry-base", 25*time.Millisecond, "base backoff between retries (doubles per retry, jittered)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive failures before a backend's circuit opens")
	breakerCooldown := flag.Duration("breaker-cooldown", 2*time.Second, "open-circuit interval before a half-open probe")
	sweepTimeout := flag.Duration("sweep-timeout", 10*time.Minute, "overall deadline per fanned-out sweep")
	statsTimeout := flag.Duration("stats-timeout", 2*time.Second, "deadline per backend /v1/stats fetch during aggregation")
	flag.Parse()

	var urls []string
	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			urls = append(urls, b)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "pcfront: -backends is required (comma-separated pcserve URLs)")
		return 2
	}

	f, err := front.New(front.Options{
		Backends:         urls,
		Replicas:         *replicas,
		HealthInterval:   *healthInterval,
		FailThreshold:    *failThreshold,
		RestoreThreshold: *restoreThreshold,
		RequestTimeout:   *requestTimeout,
		AttemptTimeout:   *attemptTimeout,
		MaxAttempts:      *attempts,
		RetryBaseDelay:   *retryBase,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		SweepTimeout:     *sweepTimeout,
		StatsTimeout:     *statsTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer f.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           f,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("pcfront listening on %s over %d backends", *addr, len(urls))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Print(err)
			return 1
		}
	case sig := <-sigc:
		log.Printf("received %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Print(err)
			return 1
		}
	}
	return 0
}
