// Command meblserved serves the stitch-aware router as an HTTP JSON API:
// routing jobs run on a bounded worker pool, identical submissions are
// served from the result of a retained done job with the same content
// address, and jobs can be cancelled or time-bounded mid-route.
//
// Usage:
//
//	meblserved [-addr :8080] [-workers N] [-queue 64] [-retain 512] [-job-timeout 10m] [-pprof]
//
// See docs/API.md for the endpoint contract and README.md for a curl
// walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"syscall"
	"time"

	"stitchroute/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("meblserved: ")
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "worker pool size: jobs routed concurrently (0 = NumCPU)")
		queue       = flag.Int("queue", 64, "max queued jobs before submissions get 503")
		retain      = flag.Int("retain", 512, "finished jobs kept, and so cached results, before the oldest are evicted (negative = unbounded)")
		jobTimeout  = flag.Duration("job-timeout", 0, "default per-job timeout (0 = unbounded)")
		maxTimeout  = flag.Duration("max-timeout", 0, "cap on any requested per-job timeout (0 = uncapped)")
		grace       = flag.Duration("grace", 30*time.Second, "shutdown grace period before running jobs are cancelled")
		enablePprof = flag.Bool("pprof", false, "serve Go pprof profiling endpoints under /debug/pprof/")
	)
	flag.Parse()

	srv := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		MaxFinished:    *retain,
		DefaultTimeout: *jobTimeout,
		MaxTimeout:     *maxTimeout,
	})
	// Compose an explicit outer mux instead of leaning on http.DefaultServeMux
	// so profiling endpoints exist only when asked for, and nothing else
	// registered against the default mux leaks onto this listener.
	handler := srv.Handler()
	if *enablePprof {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("pprof enabled at /debug/pprof/")
	}
	hs := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("shutting down (grace %v)", *grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			log.Printf("grace period expired; running jobs were cancelled")
		} else {
			log.Printf("pool shutdown: %v", err)
		}
	}
	log.Printf("bye")
}
