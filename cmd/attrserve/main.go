// Command attrserve is the attribution inference server: it loads
// trained models from a directory and answers attribution and
// detection queries over HTTP with feature extraction on a fixed pool
// of workers, bounded admission, and hot model reload.
//
//	attrserve -models ./models -addr :8080
//
// The model directory holds oracle.model (written by attr -save)
// and/or detector.model (written by gptdetect -save); either may be
// absent and can be supplied later via reload.
//
// Signals: SIGHUP reloads the models in place (as does POST
// /v1/reload) without dropping in-flight requests; SIGINT/SIGTERM
// drain the queue and exit cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gptattr/internal/fault"
	"gptattr/internal/featcache"
	"gptattr/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "attrserve:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until a shutdown signal. When
// ready is non-nil it receives the bound address once listening
// (tests use this with -addr 127.0.0.1:0).
func run(args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("attrserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	modelDir := fs.String("models", "", "directory with oracle.model / detector.model (plus optional .l1/.l2 degrade-ladder rungs)")
	queueDepth := fs.Int("queue-depth", 256, "admission queue bound; overflow answers 429")
	workers := fs.Int("workers", 0, "extraction workers (0 = GOMAXPROCS)")
	cacheDir := fs.String("cache-dir", "", "content-addressed feature cache directory shared across requests")
	cacheEntries := fs.Int("cache-entries", 4096, "in-memory feature cache size")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline")
	brownoutTarget := fs.Duration("brownout-target", 25*time.Millisecond, "queue-delay target; sustained delay above it sheds feature families before requests (0 disables)")
	brownoutWindow := fs.Duration("brownout-window", 100*time.Millisecond, "brownout decision window (one degrade step at most per window)")
	evade := fs.Bool("evade", false, "serve the adversarial arena on POST /v1/evade")
	evadeRunning := fs.Int("evade-running", 2, "concurrently running evasion searches")
	evadeQueued := fs.Int("evade-queued", 8, "accepted-but-waiting evasion jobs; overflow answers 429")
	evadeTimeout := fs.Duration("evade-timeout", 60*time.Second, "per-search budget; expiry yields a truncated best-so-far result")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof on this separate address (e.g. 127.0.0.1:6060); empty disables")
	faultSpec := fs.String("fault", "", "fault injection spec, e.g. serve.admit=error:p=0.1 (testing only)")
	faultSeed := fs.Int64("fault-seed", 1, "seed for -fault probability draws")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelDir == "" {
		return fmt.Errorf("-models directory is required")
	}
	if *faultSpec != "" {
		if _, err := fault.EnableSpec(*faultSeed, *faultSpec); err != nil {
			return err
		}
		defer fault.Disable()
		fmt.Fprintf(stdout, "attrserve: fault injection armed (seed %d): %s\n", *faultSeed, *faultSpec)
	}

	registry, err := serve.NewRegistry(*modelDir)
	if err != nil {
		return err
	}
	cache, err := featcache.New(featcache.Options{MaxEntries: *cacheEntries, Dir: *cacheDir})
	if err != nil {
		return err
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(stdout, format+"\n", a...)
	}
	var brownout *serve.Brownout
	if *brownoutTarget > 0 {
		brownout = serve.NewBrownout(serve.BrownoutConfig{
			Target: *brownoutTarget,
			Window: *brownoutWindow,
			Logf:   logf,
		})
	}
	batcher := serve.NewBatcher(serve.BatchConfig{
		QueueDepth: *queueDepth,
		Workers:    *workers,
		Cache:      cache,
		Brownout:   brownout,
		Logf:       logf,
	})
	scfg := serve.Config{
		Registry: registry,
		Batcher:  batcher,
		Timeout:  *timeout,
	}
	if *evade {
		scfg.Evade = &serve.EvadeOptions{
			MaxRunning: *evadeRunning,
			MaxQueued:  *evadeQueued,
			JobTimeout: *evadeTimeout,
		}
	}
	srv, err := serve.New(scfg)
	if err != nil {
		return err
	}

	// Profiling stays off the public address: when enabled it gets its
	// own mux on its own (typically loopback) listener, so the serving
	// handler is never one route away from /debug/pprof.
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", netpprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer func() { _ = pln.Close() }() // debug listener; nothing to do on close failure
		go func() { _ = http.Serve(pln, pmux) }()
		fmt.Fprintf(stdout, "attrserve: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	// Register signal handling before announcing readiness so a signal
	// sent the moment the address is known is never lost (or fatal).
	sigs := make(chan os.Signal, 4)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	m := registry.Current()
	fmt.Fprintf(stdout, "attrserve listening on %s (generation %d, oracle=%v, detector=%v)\n",
		ln.Addr(), m.Generation, m.Oracle != nil, m.Detector != nil)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	for {
		select {
		case err := <-serveErr:
			srv.CloseEvade()
			batcher.Close()
			return err
		case sig := <-sigs:
			if sig == syscall.SIGHUP {
				if err := registry.Load(); err != nil {
					// Keep serving the previous generation.
					fmt.Fprintf(stdout, "attrserve: reload failed, keeping generation %d: %v\n",
						registry.Current().Generation, err)
				} else {
					fmt.Fprintf(stdout, "attrserve: reloaded models, generation %d\n",
						registry.Current().Generation)
				}
				continue
			}
			// Graceful shutdown: stop accepting, let in-flight requests
			// finish, then drain the extraction queue.
			fmt.Fprintf(stdout, "attrserve: %v, draining\n", sig)
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			err := httpSrv.Shutdown(ctx)
			cancel()
			srv.CloseEvade()
			batcher.Close()
			<-serveErr // Serve has returned ErrServerClosed
			if err != nil {
				return fmt.Errorf("drain incomplete: %w", err)
			}
			fmt.Fprintln(stdout, "attrserve: drained, bye")
			return nil
		}
	}
}
