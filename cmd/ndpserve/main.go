// Command ndpserve runs the shared sweep-result service: an HTTP/JSON
// API over a content-addressed run cache (internal/serve, DESIGN.md
// section 8). Warm keys are served straight from the store; cold keys
// are simulated on a bounded worker pool with singleflight dedupe, so
// identical configurations from any number of clients cost one
// simulation.
//
// Usage:
//
//	ndpserve -store results/.cache            # serve on :8947
//	ndpserve -addr :9000 -workers 8 -queue 256
//
// Clients point any sweep at it:
//
//	ndpexp -figs fig12 -cache http://host:8947
//	ndpsim -mech NDPage -cores 4 -cache http://host:8947
//
// SIGINT/SIGTERM shut down gracefully: the listener closes, in-flight
// and queued simulations complete and are stored, then the process
// exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ndpage/internal/serve"
	"ndpage/internal/sweep"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintln(os.Stderr, "ndpserve:", err)
		}
		os.Exit(1)
	}
}

// errFlagParse marks a flag-parsing failure the FlagSet has already
// reported on stderr; main exits nonzero without repeating it.
var errFlagParse = errors.New("flag parsing failed")

// run executes one ndpserve invocation: parse args, open the store,
// serve until ctx cancels, drain, exit. When ready is non-nil the bound
// address is sent on it once the listener is up (tests bind to :0).
func run(ctx context.Context, args []string, logw io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("ndpserve", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr     = fs.String("addr", ":8947", "listen address")
		storeDir = fs.String("store", "ndpserve-cache", "directory for the content-addressed result store")
		workers  = fs.Int("workers", 0, "max concurrent simulations (0 = one per CPU)")
		queue    = fs.Int("queue", 0, "admission queue depth before 429 backpressure (0 = 64)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlagParse
	}

	store, err := sweep.NewDirStore(*storeDir)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Options{
		Store:      store,
		Workers:    *workers,
		QueueDepth: *queue,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(logw, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	snap := srv.Snapshot()
	fmt.Fprintf(logw, "ndpserve: listening on http://%s (store %s: %d results; %d workers, queue %d)\n",
		ln.Addr(), store.Dir(), snap.Stored, snap.Workers, snap.QueueCapacity)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(logw, "ndpserve: shutting down (draining in-flight runs)\n")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		httpSrv.Close()
	}
	srv.Close() // waits for queued + in-flight simulations to land in the store
	fmt.Fprintf(logw, "ndpserve: done (%d simulations served)\n", srv.Snapshot().Simulations)
	return nil
}
