// Command pncd is the multi-tenant scheduling daemon: it hosts many
// independent cells over internal/host and serves the versioned
// control API defined in internal/api. See DESIGN.md §15 and the
// README quickstart.
//
// Usage:
//
//	pncd -addr 127.0.0.1:8080 -state /var/lib/pncd \
//	     -workers 8 -watchdog 250ms -max-cells 4096
//
// SIGTERM/SIGINT drains gracefully: new mutating requests are refused,
// in-flight solves truncate to their anytime plans and are
// checkpointed, then the listener closes. A restarted pncd pointed at
// the same -state directory recovers every cell byte-identically from
// its spec and checkpoint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mmwave/internal/pncd"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		addrFile  = flag.String("addr-file", "", "write the bound address to this file after listening (for scripts using port 0)")
		state     = flag.String("state", "", "state directory for cell specs and checkpoints (empty: in-memory only)")
		workers   = flag.Int("workers", 0, "batch-step worker pool size (0: one goroutine per cell)")
		watchdog  = flag.Duration("watchdog", 0, "per-epoch solve deadline (0: none)")
		maxCells  = flag.Int("max-cells", 0, "admission limit on live cells (0: unlimited)")
		maxLinks  = flag.Int("max-links", 0, "admission limit on total links across cells (0: unlimited)")
		retention = flag.Int("report-retention", 0, "per-cell epoch report ring size (0: default 128)")
		stepEvery = flag.Duration("step-interval", 0, "self-clocked batch stepping period (0: step only on API request)")
		drainWait = flag.Duration("drain-timeout", 10*time.Second, "maximum time to wait for in-flight epochs on shutdown")
	)
	flag.Parse()

	if err := run(*addr, *addrFile, *state, *workers, *watchdog,
		*maxCells, *maxLinks, *retention, *stepEvery, *drainWait); err != nil {
		log.Fatalf("pncd: %v", err)
	}
}

// Connection deadlines for the listener: a client must send its
// headers promptly and its whole request within readTimeout, and an
// idle keep-alive connection is closed after idleTimeout. There is no
// write deadline, because a reports?follow stream stays open for as
// long as its client keeps reading.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the API handler in a server with the connection
// deadlines above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(addr, addrFile, state string, workers int, watchdog time.Duration,
	maxCells, maxLinks, retention int, stepEvery, drainWait time.Duration) error {
	srv, err := pncd.New(pncd.Config{
		StateDir:        state,
		Workers:         workers,
		Watchdog:        watchdog,
		MaxCells:        maxCells,
		MaxTotalLinks:   maxLinks,
		ReportRetention: retention,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("pncd: listening on %s (state=%q workers=%d)", ln.Addr(), state, workers)
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return fmt.Errorf("write addr file: %w", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	hs := newHTTPServer(srv.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	// Optional self-clocked stepping: drive the whole fleet through
	// epochs without an external stepper.
	if stepEvery > 0 {
		go func() {
			base := "http://" + ln.Addr().String()
			tick := time.NewTicker(stepEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					req, err := http.NewRequestWithContext(ctx, http.MethodPost,
						base+"/v1/step", nil)
					if err != nil {
						continue
					}
					if resp, err := http.DefaultClient.Do(req); err == nil {
						resp.Body.Close()
					}
				}
			}
		}()
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	log.Printf("pncd: draining (timeout %s)", drainWait)
	dctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("pncd: drain: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	log.Printf("pncd: stopped")
	return nil
}
