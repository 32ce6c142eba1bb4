package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/stats"
)

// requestLog wraps a handler and records each request as "METHOD path",
// and the batch id of the latest submit response.
type requestLog struct {
	h    http.Handler
	mu   sync.Mutex
	reqs []string
	id   string
}

func (l *requestLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	l.reqs = append(l.reqs, r.Method+" "+r.URL.Path)
	l.mu.Unlock()
	if r.Method != http.MethodPost {
		l.h.ServeHTTP(w, r)
		return
	}
	tee := &teeWriter{ResponseWriter: w}
	l.h.ServeHTTP(tee, r)
	var st BatchStatus
	if json.Unmarshal(tee.body.Bytes(), &st) == nil {
		l.mu.Lock()
		l.id = st.ID
		l.mu.Unlock()
	}
}

// lastID returns the batch id of the latest submit response.
func (l *requestLog) lastID() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.id
}

// teeWriter keeps a copy of the response body it writes.
type teeWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.body.Write(p)
	return t.ResponseWriter.Write(p)
}

// take returns the requests recorded since the last take.
func (l *requestLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.reqs
	l.reqs = nil
	return out
}

// sameEvent compares two events field by field, Results byte for byte.
func sameEvent(a, b Event) bool {
	if !bytes.Equal(a.Results, b.Results) {
		return false
	}
	a.Results, b.Results = nil, nil
	return reflect.DeepEqual(a, b)
}

// runEvents runs jobs through client.Run and returns every event it
// delivered plus each point's raw result bytes.
func runEvents(t *testing.T, client *Client, jobs []Job) ([]Event, [][]byte) {
	t.Helper()
	var evs []Event
	raw := make([][]byte, len(jobs))
	_, err := client.Run(context.Background(), jobs, func(ev Event, res *stats.Results) {
		evs = append(evs, ev)
		if ev.Type == "result" {
			if res == nil {
				t.Errorf("result event %d delivered without decoded results", ev.Index)
			}
			raw[ev.Index] = ev.Results
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return evs, raw
}

// TestClientRunAllHitOneRequest: a batch the worker finishes at
// admission costs Client.Run one request, and the events it delivers
// are exactly the ones the batch's stream replays.
func TestClientRunAllHitOneRequest(t *testing.T) {
	sched := NewScheduler(SchedulerOptions{Workers: 2})
	log := &requestLog{h: NewHandler(sched)}
	srv := httptest.NewServer(log)
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	jobs := []Job{testJob("a", 32), testJob("b", 64), testJob("c", 128)}

	_, cold := runEvents(t, client, jobs) // batch b1: simulates, streams
	b1 := log.lastID()
	if got := log.take(); len(got) != 2 || got[1] != "GET /v1/batches/"+b1+"/events" {
		t.Fatalf("cold run requests %v, want a submit and b1's stream", got)
	}
	evs, warm := runEvents(t, client, jobs) // batch b2: every point hits
	b2 := log.lastID()
	if got := log.take(); len(got) != 1 || got[0] != "POST /v1/batches" {
		t.Fatalf("all-hit run requests %v, want the submit alone", got)
	}
	for i := range jobs {
		if !bytes.Equal(warm[i], cold[i]) {
			t.Errorf("point %d: hit bytes differ from the simulated ones", i)
		}
	}
	var streamed []Event
	if err := client.Stream(context.Background(), b2, func(ev Event) error {
		streamed = append(streamed, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(streamed) {
		t.Fatalf("Run delivered %d events, the stream replays %d", len(evs), len(streamed))
	}
	for i := range evs {
		if !sameEvent(evs[i], streamed[i]) {
			t.Errorf("event %d: Run delivered %+v, the stream replays %+v", i, evs[i], streamed[i])
		}
	}
}

// TestClientRunWithMissStreams: one miss in an otherwise warm batch
// sends Client.Run down the stream, and the hits' bytes do not change.
func TestClientRunWithMissStreams(t *testing.T) {
	sched := NewScheduler(SchedulerOptions{Workers: 2})
	log := &requestLog{h: NewHandler(sched)}
	srv := httptest.NewServer(log)
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	jobs := []Job{testJob("a", 32), testJob("b", 64)}

	_, cold := runEvents(t, client, jobs)
	log.take()
	evs, warm := runEvents(t, client, append(jobs, testJob("miss", 256)))
	b2 := log.lastID()
	if got := log.take(); len(got) != 2 || got[1] != "GET /v1/batches/"+b2+"/events" {
		t.Fatalf("requests %v, want a submit and b2's stream", got)
	}
	for i := range jobs {
		if !bytes.Equal(warm[i], cold[i]) {
			t.Errorf("point %d: bytes differ between the cold and the streamed warm run", i)
		}
	}
	if last := evs[len(evs)-1]; last.Type != "done" || last.Done != 3 {
		t.Errorf("final event %+v, want done 3/3", last)
	}
}

// TestFinishedAtAdmission pins which submit responses count as
// finished: only a done batch of all hits with every result present.
func TestFinishedAtAdmission(t *testing.T) {
	jobs := []Job{testJob("a", 32), testJob("b", 64)}
	for _, c := range []struct {
		body string
		want bool
	}{
		{`{"id":"b1","state":"done","total":2,"done":2,"cache_hits":2,"results":[{"Cycles":1},{"Cycles":2}]}`, true},
		{`{"id":"b1","state":"running","total":2,"done":1,"cache_hits":1,"results":[{"Cycles":1},null]}`, false},
		{`{"id":"b1","state":"done","total":2,"done":2,"cache_hits":1,"results":[{"Cycles":1},{"Cycles":2}]}`, false},
		{`{"id":"b1","state":"done","total":2,"done":2,"cache_hits":2,"results":[{"Cycles":1},null]}`, false},
		{`{"id":"b1","state":"done","total":2,"done":2,"cache_hits":2,"results":[{"Cycles":1}]}`, false},
		{`{"id":"b1","state":"done","total":2,"done":2,"cache_hits":2,"errors":["b: boom"]}`, false},
	} {
		var st BatchStatus
		if err := json.Unmarshal([]byte(c.body), &st); err != nil {
			t.Fatal(err)
		}
		if got := st.FinishedAtAdmission(jobs); got != c.want {
			t.Errorf("%s: finished = %v, want %v", c.body, got, c.want)
		}
	}
}
