package main

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"mmwave/internal/api"
)

// TestRunLifecycle drives the daemon end to end in-process: boot on an
// ephemeral port, create a cell, step it, scrape metrics, then SIGTERM
// and verify the drain completes cleanly. This is the same sequence
// `make pncd-smoke` runs against the built binary.
func TestRunLifecycle(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	done := make(chan error, 1)
	go func() {
		done <- run("127.0.0.1:0", addrFile, filepath.Join(dir, "state"),
			2, 0, 0, 0, 0, 0, 10*time.Second)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("server never wrote its address file")
		}
		if b, err := os.ReadFile(addrFile); err == nil {
			addr = string(b)
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	ctx := context.Background()
	client := api.NewClient("http://"+addr, nil)
	h, err := client.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health: %+v, %v", h, err)
	}
	st, err := client.CreateCell(ctx, api.CellSpec{
		Instance: &api.Instance{Links: 4, Channels: 2, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := client.StepCell(ctx, st.Cell)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != "ok" {
		t.Fatalf("step outcome %q (%s)", rep.Outcome, rep.Error)
	}
	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "host_epochs_total 1") {
		t.Fatalf("metrics missing host_epochs_total:\n%s", text)
	}

	// SIGTERM → graceful drain → run returns nil.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not stop after SIGTERM")
	}
}

// TestHTTPServerDeadlines: the daemon's server bounds how long a client
// may take to send its request and how long an idle connection lives,
// but sets no write deadline, which would cut off report streams.
func TestHTTPServerDeadlines(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("timeouts header=%v read=%v idle=%v, want all positive",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want 0 (follow streams are long-lived)", hs.WriteTimeout)
	}
}
