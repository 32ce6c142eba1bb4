package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStreamReconnectAfterRestart: a client whose event stream is cut
// reconnects to the same batch id. If the node restarted in between, the
// id must not name the new process's batch: the reconnect gets 404 (a
// fleet coordinator then re-routes the points) instead of another
// batch's events under this batch's point indices.
func TestStreamReconnectAfterRestart(t *testing.T) {
	before, release := gatedScheduler(t, SchedulerOptions{Workers: 1})
	after := NewScheduler(SchedulerOptions{Workers: 1})
	var mu sync.Mutex
	current := NewHandler(before)
	opened := make(chan struct{}, 8) // one per stream request; the client makes at most three
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h := current
		mu.Unlock()
		if strings.HasSuffix(r.URL.Path, "/events") {
			opened <- struct{}{}
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	defer close(release)

	mine, err := before.Submit([]Job{testJob("mine", 64)})
	if err != nil {
		t.Fatal(err)
	}
	// The restarted process has admitted a batch of its own.
	theirs, err := after.Submit([]Job{testJob("theirs", 32)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := theirs.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	client := &Client{BaseURL: srv.URL}
	var got []string
	errc := make(chan error, 1)
	go func() {
		errc <- client.Stream(ctx, mine.ID(), func(ev Event) error {
			got = append(got, ev.Type+" "+ev.Name)
			return nil
		})
	}()
	<-opened
	// Restart: the node behind the address changes, and the open stream
	// is cut.
	mu.Lock()
	current = NewHandler(after)
	mu.Unlock()
	srv.CloseClientConnections()

	err = <-errc
	if err == nil || len(got) > 0 {
		t.Fatalf("reconnect after restart: error %v, events %q; want a 404 and no events", err, got)
	}
	if !strings.Contains(err.Error(), "404") {
		t.Errorf("reconnect error %v, want HTTP 404", err)
	}
}
