// Command attrrouter fronts a fleet of attrserve replicas: it routes
// each request to a replica by consistent hash of the source body
// (preserving per-replica feature-cache affinity), hedges requests
// that sit on a slow replica, fails over dead replicas, and
// coordinates fleet-wide model reloads so no client ever observes a
// mixed-generation window.
//
//	attrrouter -replicas r1=http://127.0.0.1:8081,r2=http://127.0.0.1:8082 \
//	    -addr :8080
//
// The router speaks the same HTTP surface as a single attrserve
// (POST /v1/attribute, /v1/detect, /v1/reload, GET /healthz,
// /metrics), so clients cannot tell one replica from a fleet, plus
// GET /fleet/status for the per-replica view and POST
// /v1/reload/stage + /v1/reload/commit for driving the two reload
// phases separately.
//
// Signals: SIGHUP runs a coordinated reload across the fleet (as does
// POST /v1/reload); SIGINT/SIGTERM drain and exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gptattr/internal/fault"
	"gptattr/internal/fleet"
	"gptattr/internal/serve"
	"gptattr/internal/serve/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "attrrouter:", err)
		os.Exit(1)
	}
}

// parseReplicas turns "r1=http://h:p,r2=http://h:p" (or bare URLs,
// which get positional names r1, r2, ...) into replica handles.
func parseReplicas(spec string, client *http.Client) ([]*fleet.Replica, error) {
	var out []*fleet.Replica
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url := fmt.Sprintf("r%d", i+1), part
		if eq := strings.Index(part, "="); eq >= 0 && !strings.HasPrefix(part[eq+1:], "/") && strings.Contains(part[eq+1:], "://") {
			name, url = part[:eq], part[eq+1:]
		}
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		out = append(out, fleet.NewReplica(name, url, client))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no replicas in %q", spec)
	}
	return out, nil
}

// run starts the router and blocks until a shutdown signal. When
// ready is non-nil it receives the bound address once listening.
func run(args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("attrrouter", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	replicasSpec := fs.String("replicas", "", "comma-separated replica list: name=url or bare url")
	hedge := fs.Duration("hedge", 25*time.Millisecond, "hedge a request to the next replica after this much silence")
	noHedge := fs.Bool("no-hedge", false, "disable request hedging")
	vnodes := fs.Int("vnodes", fleet.DefaultVnodes, "ring points per replica")
	healthInterval := fs.Duration("health-interval", 1*time.Second, "replica health poll period")
	deadAfter := fs.Int("dead-after", 2, "consecutive failed probes before a replica leaves rotation")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline")
	maxInflight := fs.Int("max-inflight", 1024, "concurrent request bound; overflow answers 429")
	breakerSlow := fs.Duration("breaker-slow-after", 0, "count replica answers slower than this as breaker failures (0 disables latency accounting)")
	breakerOpenFor := fs.Duration("breaker-open-for", time.Second, "open-breaker cooldown before half-open probing")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
	faultSpec := fs.String("fault", "", "fault injection spec, e.g. fleet.forward.r1=latency:latency=200ms (testing only)")
	faultSeed := fs.Int64("fault-seed", 1, "seed for -fault probability draws")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replicasSpec == "" {
		return fmt.Errorf("-replicas is required")
	}
	if *faultSpec != "" {
		if _, err := fault.EnableSpec(*faultSeed, *faultSpec); err != nil {
			return err
		}
		defer fault.Disable()
		fmt.Fprintf(stdout, "attrrouter: fault injection armed (seed %d): %s\n", *faultSeed, *faultSpec)
	}

	// Every admitted request may be forwarding to the same replica, so
	// each replica's idle-connection pool is sized to the in-flight
	// bound: no forward dials a fresh connection once the pool is warm.
	replicas, err := parseReplicas(*replicasSpec, fleet.NewClient(*maxInflight))
	if err != nil {
		return err
	}
	met := metrics.NewRegistry()
	router, err := fleet.New(fleet.Config{
		Replicas:      replicas,
		Vnodes:        *vnodes,
		HedgeDelay:    *hedge,
		NoHedge:       *noHedge,
		DeadAfter:     *deadAfter,
		ProbeInterval: *healthInterval,
		Breaker: fleet.BreakerConfig{
			SlowAfter: *breakerSlow,
			OpenFor:   *breakerOpenFor,
		},
		Metrics: met,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stdout, format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = router.Sync(ctx)
	cancel()
	if err != nil {
		return err
	}
	router.Start()
	defer router.Close()

	srv, err := serve.New(serve.Config{
		Backend:     router,
		Metrics:     met,
		Timeout:     *timeout,
		MaxInflight: *maxInflight,
	})
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/fleet/status", func(w http.ResponseWriter, r *http.Request) {
		reqID := srv.Begin(w, r)
		if r.Method != http.MethodGet {
			// Same error envelope as every other endpoint: JSON body
			// with the error and the request ID, not a bare status.
			srv.WriteError(w, http.StatusMethodNotAllowed, "GET required", reqID)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(router.Status())
	})

	sigs := make(chan os.Signal, 4)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	h := router.Health()
	fmt.Fprintf(stdout, "attrrouter listening on %s (%d replicas, generation %d, oracle=%v, detector=%v)\n",
		ln.Addr(), len(replicas), h.ModelGeneration, h.Oracle, h.Detector)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	httpSrv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	for {
		select {
		case err := <-serveErr:
			return err
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				rctx, rcancel := context.WithTimeout(context.Background(), 30*time.Second)
				gen, err := router.CoordinatedReload(rctx)
				rcancel()
				if err != nil {
					fmt.Fprintf(stdout, "attrrouter: coordinated reload failed: %v\n", err)
				} else {
					fmt.Fprintf(stdout, "attrrouter: fleet reloaded, generation %d\n", gen)
				}
				continue
			}
			fmt.Fprintf(stdout, "attrrouter: %v, draining\n", sig)
			dctx, dcancel := context.WithTimeout(context.Background(), *drain)
			err := httpSrv.Shutdown(dctx)
			dcancel()
			<-serveErr
			if err != nil {
				return fmt.Errorf("drain incomplete: %w", err)
			}
			fmt.Fprintln(stdout, "attrrouter: drained, bye")
			return nil
		}
	}
}
