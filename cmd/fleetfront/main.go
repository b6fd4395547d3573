// Command fleetfront runs the fleet's sharding data plane: an HTTP
// front that accepts the exact POST /v1/estimate surface a single
// serve worker exposes — JSON, NDJSON, or the binary wire codec —
// and shards each request's scenarios across N workers by a
// deterministic (machine, op, algorithm, p, m) hash, so every worker's
// answer cache sees a stable partition of the keyspace:
//
//	serve -addr :8081 -cache .sweepcache &
//	serve -addr :8082 -cache .sweepcache &
//	fleetfront -addr :8080 -workers w0=localhost:8081,w1=localhost:8082
//
//	curl -s -d '[{"machine":"SP2","op":"alltoall","p":32,"m":1024},
//	             {"machine":"T3D","op":"broadcast","p":8,"m":256}]' \
//	     localhost:8080/v1/estimate
//
// The merged response is byte-identical to what one worker would have
// answered for the whole batch. Failed sub-batches retry on the next
// live worker in ring order (liveness blends the front's own transport
// observations with the scraper's health view); POST /v1/reload rolls
// the fleet's registries one worker at a time, draining each worker's
// front-side gate first; GET /metrics serves the merged fleet view —
// every worker's series plus the front's own (front_requests_total,
// front_worker_requests_total, front_retries_total,
// front_rebalance_total). See internal/serve/front.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/serve/front"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.String("workers", "",
			`comma-separated workers in ring order, each "name=url" (e.g. "w0=localhost:8081,w1=localhost:8082"); a url without a scheme gets http://`)
		timeout = flag.Duration("timeout", 30*time.Second, "per sub-request attempt bound")
		retries = flag.Int("retries", 0,
			"failover attempts per sub-batch beyond the first (0 = the full ladder: every other worker)")
		workerConc  = flag.Int("worker-concurrent", 8, "sub-requests in flight per worker")
		workerQueue = flag.Int("worker-queue", 64, "sub-requests queued per worker beyond the concurrency budget")
		interval    = flag.Duration("scrape-interval", 5*time.Second, "worker metrics scrape period (0 disables scraping)")
		scrapeTimeo = flag.Duration("scrape-timeout", 2*time.Second, "per-worker scrape timeout")
		drainTimeo  = flag.Duration("drain-timeout", 10*time.Second, "per-worker gate-drain bound during a rolling reload")
		reloadTimeo = flag.Duration("reload-timeout", 60*time.Second, "per-worker registry-rebuild bound during a rolling reload")
		quiet       = flag.Bool("quiet", false, "suppress startup logging")
		logLevel    = flag.String("log-level", "info", "structured log level (debug logs failover retries and liveness flips)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetfront:", err)
		return 2
	}
	logger := obs.NewLogger(os.Stderr, level)

	ring, err := parseWorkers(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetfront:", err)
		return 2
	}

	reg := obs.NewRegistry()
	metrics := front.NewMetrics(reg, front.WorkerNames(ring))

	cfg := front.Config{
		Workers:          ring,
		Timeout:          *timeout,
		Retries:          *retries,
		WorkerConcurrent: *workerConc,
		WorkerQueue:      *workerQueue,
		DrainTimeout:     *drainTimeo,
		ReloadTimeout:    *reloadTimeo,
		Metrics:          metrics,
		Logger:           logger,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The front must exist before the scraper's liveness callback can
	// target it, but the callback fires only once Run starts, after both
	// are wired.
	var f *front.Front
	if *interval > 0 {
		targets := make([]fleet.Target, len(ring))
		for i, w := range ring {
			targets[i] = fleet.Target{Name: w.Name, URL: w.URL + "/metrics"}
		}
		scraper, err := fleet.New(fleet.Config{
			Targets:  targets,
			Interval: *interval,
			Timeout:  *scrapeTimeo,
			Logger:   logger,
			OnLiveness: func(instance string, up bool) {
				if f != nil {
					f.SetLive(instance, up)
				}
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetfront:", err)
			return 2
		}
		cfg.Scraper = scraper
	}
	f, err = front.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetfront:", err)
		return 2
	}
	if cfg.Scraper != nil {
		go cfg.Scraper.Run(ctx)
	}

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           f.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- httpServer.Shutdown(shutdownCtx)
	}()

	if !*quiet {
		fmt.Fprintf(os.Stderr, "fleetfront: sharding across %d workers on %s\n", len(ring), *addr)
	}
	if err := httpServer.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "fleetfront:", err)
		return 1
	}
	if err := <-done; err != nil {
		fmt.Fprintln(os.Stderr, "fleetfront: shutdown:", err)
		return 1
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr, "fleetfront: drained, bye")
	}
	return 0
}

// parseWorkers expands the -workers flag: "name=url" pairs in ring
// order, scheme filled in when missing and trailing slashes trimmed, so
// the scrape target URL+"/metrics" never doubles its slash. Names are
// required — they key the per-worker metrics and reload reports.
func parseWorkers(spec string) ([]front.Worker, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("no -workers given")
	}
	var out []front.Worker
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, u, ok := strings.Cut(item, "=")
		if !ok || strings.TrimSpace(name) == "" {
			return nil, fmt.Errorf("worker %q: want name=url", item)
		}
		u = strings.TrimSpace(u)
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		u = strings.TrimRight(u, "/")
		out = append(out, front.Worker{Name: strings.TrimSpace(name), URL: u})
	}
	return out, nil
}
