package service

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeDrainsThenWaitsForInFlight: cancelling Serve's context calls
// drain, a request in flight at the cancel still completes with 200, and
// Serve returns only after it has.
func TestServeDrainsThenWaitsForInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // Serve listens itself

	started, release, handled := make(chan struct{}), make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(started)
			<-release
			defer close(handled)
		}
		w.WriteHeader(http.StatusOK)
	})
	drained := make(chan struct{})
	drain := func(context.Context) error { close(drained); return nil }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, "test", addr, h, drain, time.Second, false) }()
	if err := (&Client{BaseURL: "http://" + addr}).AwaitReady(ctx); err != nil {
		t.Fatalf("server never came up: %v", err)
	}

	status := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			t.Errorf("in-flight request: %v", err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-started
	cancel()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelling the context never called drain")
	}
	select {
	case err := <-served:
		t.Fatalf("Serve returned (%v) while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	select {
	case <-handled:
	default:
		t.Error("Serve returned before the in-flight request completed")
	}
	if code := <-status; code != http.StatusOK {
		t.Errorf("in-flight request got %d, want 200", code)
	}
}
