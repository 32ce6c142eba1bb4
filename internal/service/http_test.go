package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// figure9Batch builds a figure-9-shaped batch at test scale: the full
// 3x3 COoO grid plus the two baselines, each over the whole benchmark
// suite — 11 configurations x 6 workloads = 66 points.
func figure9Batch(insts uint64) []Job {
	n := trace.LenFor(insts)
	recipes := []trace.Recipe{
		{Kernel: trace.KernelStream, N: n},
		{Kernel: trace.KernelStrided, N: n, Stride: 8},
		{Kernel: trace.KernelStencil, N: n},
		{Kernel: trace.KernelReduction, N: n},
		{Kernel: trace.KernelBlocked, N: n},
		{Kernel: trace.KernelFPMix, N: n, Seed: 42},
	}
	var cfgs []config.Config
	for _, sliq := range []int{512, 1024, 2048} {
		for _, iq := range []int{32, 64, 128} {
			cfgs = append(cfgs, config.CheckpointDefault(iq, sliq))
		}
	}
	cfgs = append(cfgs, config.BaselineSized(128), config.BaselineSized(4096))

	var jobs []Job
	for _, cfg := range cfgs {
		for _, r := range recipes {
			jobs = append(jobs, Job{Name: r.Kernel, Config: cfg, Trace: r, Insts: insts})
		}
	}
	return jobs
}

// TestEndToEndWarmBatch is the PR's acceptance test: submit a
// figure-9-sized batch to the daemon twice. The second submission must
// be >= 95% cache hits, return byte-identical results, and perform
// zero simulator calls for cached points.
func TestEndToEndWarmBatch(t *testing.T) {
	cache, err := NewCache(0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(SchedulerOptions{Workers: 4, Cache: cache})
	var runs atomic.Int64
	sched.run = func(spec sim.RunSpec, _ *mem.Hierarchy) (stats.Results, error) {
		runs.Add(1)
		return sim.Run(spec)
	}
	srv := httptest.NewServer(NewHandler(sched))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	jobs := figure9Batch(1200)

	// Cold: every point simulates.
	coldByIndex := make([]string, len(jobs))
	coldResults, err := client.Run(ctx, jobs, func(ev Event, _ *stats.Results) {
		if ev.Type == "result" {
			coldByIndex[ev.Index] = string(ev.Results)
			if ev.Cached {
				t.Errorf("cold run reported point %d as cached", ev.Index)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(coldResults) != len(jobs) {
		t.Fatalf("cold run returned %d results, want %d", len(coldResults), len(jobs))
	}
	coldRuns := runs.Load()
	if coldRuns != int64(len(jobs)) {
		t.Fatalf("cold run simulated %d points, want %d", coldRuns, len(jobs))
	}

	// Warm: resubmit the identical batch.
	warmByIndex := make([]string, len(jobs))
	hits := 0
	warmResults, err := client.Run(ctx, jobs, func(ev Event, _ *stats.Results) {
		if ev.Type == "result" {
			warmByIndex[ev.Index] = string(ev.Results)
			if ev.Cached {
				hits++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// >= 95% cache hits (here: all of them).
	if hits*100 < 95*len(jobs) {
		t.Errorf("warm run had %d/%d cache hits, want >= 95%%", hits, len(jobs))
	}
	// Zero simulator calls for cached points: the counter must not
	// have moved for any hit (and with a fully warm cache, at all).
	if warmRuns := runs.Load(); warmRuns != coldRuns+int64(len(jobs)-hits) {
		t.Errorf("warm run performed %d simulator calls for cached points", warmRuns-coldRuns)
	}

	// Byte-identical stats.Results per point, compared on the raw wire
	// bytes (a decoded-struct comparison could mask encoding drift).
	for i := range jobs {
		if coldByIndex[i] == "" || warmByIndex[i] == "" {
			t.Fatalf("point %d missing raw results (cold %q, warm %q)", i, coldByIndex[i], warmByIndex[i])
		}
		if coldByIndex[i] != warmByIndex[i] {
			t.Errorf("point %d: warm results not byte-identical to cold", i)
		}
	}
	// And the decoded structs agree too.
	for i := range jobs {
		if !coldResults[i].Equal(warmResults[i]) {
			t.Errorf("point %d: decoded results differ between cold and warm", i)
		}
	}
}

// TestHTTPErrors covers the API's failure surface.
func TestHTTPErrors(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewScheduler(SchedulerOptions{Workers: 1})))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	// Unknown batch: 404 from both endpoints.
	if _, err := client.Status(ctx, "nope"); err == nil || !strings.Contains(err.Error(), "no such batch") {
		t.Errorf("unknown batch status error: %v", err)
	}
	if err := client.Stream(ctx, "nope", func(Event) error { return nil }); err == nil {
		t.Error("streaming an unknown batch succeeded")
	}

	// Invalid batch: 400 with the job named.
	bad := testJob("bad", 64)
	bad.Trace.Kernel = "quicksort"
	if _, err := client.Submit(ctx, []Job{bad}); err == nil || !strings.Contains(err.Error(), "quicksort") {
		t.Errorf("invalid submit error: %v", err)
	}
	if _, err := client.Submit(ctx, nil); err == nil {
		t.Error("empty submit succeeded")
	}

	// Malformed request bodies: each is 400, and the error names what
	// is wrong. The job they corrupt is admitted as it stands.
	job := `{"name":"x","config":` + testJobConfigJSON(t, 64) + `,"trace":{"kernel":"stream","n":6000},"insts":1500}`
	if code, msg := postBatch(t, srv.URL, `{"jobs":[`+job+`]}`); code != http.StatusAccepted {
		t.Fatalf("well-formed body: status %d (%s), want 202", code, msg)
	}
	for _, c := range []struct{ name, body, want string }{
		{"unknown field", `{"jbos":[]}`, "jbos"},
		{"unknown config field", `{"jobs":[` + strings.Replace(job, `"config":{`, `"config":{"NoSuchKnob":1,`, 1) + `]}`, "NoSuchKnob"},
		{"unknown trace field", `{"jobs":[` + strings.Replace(job, `"trace":{`, `"trace":{"no_such_trace_field":1,`, 1) + `]}`, "no_such_trace_field"},
		{"wrongly typed field", `{"jobs":[` + strings.Replace(job, `"insts":1500`, `"insts":"many"`, 1) + `]}`, "insts"},
		{"trailing garbage", `{"jobs":[` + job + `]} xyz`, "trailing data"},
		{"trailing object", `{"jobs":[` + job + `]} {"garbage":true}`, "trailing data"},
	} {
		if code, msg := postBatch(t, srv.URL, c.body); code != http.StatusBadRequest || !strings.Contains(msg, c.want) {
			t.Errorf("%s: status %d (%s), want 400 naming %q", c.name, code, msg, c.want)
		}
	}

	// A body past the limit: 413, which the client treats as final.
	// JSON whitespace inside the jobs array carries the body past the
	// limit without the test buffering it.
	rec := httptest.NewRecorder()
	body := io.MultiReader(strings.NewReader(`{"jobs":[`), io.LimitReader(spaces{}, maxBatchBody))
	srv.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batches", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413 (%s)", rec.Code, rec.Body)
	}
	var posts atomic.Int32
	tooLarge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.WriteHeader(http.StatusRequestEntityTooLarge)
	}))
	defer tooLarge.Close()
	_, err := (&Client{BaseURL: tooLarge.URL}).Submit(ctx, []Job{testJob("big", 64)})
	if se := new(StatusError); !errors.As(err, &se) || se.Code != http.StatusRequestEntityTooLarge || posts.Load() != 1 {
		t.Errorf("submit answered 413: error %v after %d posts, want one post", err, posts.Load())
	}

	// Health endpoint.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

// postBatch posts body to a batch API and returns the status code and
// the error text of a non-202 answer.
func postBatch(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batches", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e apiError
	if resp.StatusCode != http.StatusAccepted {
		json.NewDecoder(resp.Body).Decode(&e)
	}
	return resp.StatusCode, e.Error
}

// spaces is an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestHTTPPollWhileRunning polls a batch mid-flight and checks the
// snapshot is coherent (done <= total, state transitions to done).
func TestHTTPPollWhileRunning(t *testing.T) {
	sched := NewScheduler(SchedulerOptions{Workers: 1})
	srv := httptest.NewServer(NewHandler(sched))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	ctx := context.Background()

	st, err := client.Submit(ctx, []Job{testJob("p1", 32), testJob("p2", 64), testJob("p3", 128)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 3 || st.Done > st.Total {
		t.Fatalf("submit snapshot incoherent: %+v", st)
	}
	for {
		cur, err := client.Status(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Done > cur.Total {
			t.Fatalf("poll snapshot incoherent: %+v", cur)
		}
		if cur.State == StateDone {
			if cur.Done != cur.Total || len(cur.Errors) != 0 {
				t.Fatalf("final snapshot incoherent: %+v", cur)
			}
			break
		}
	}
}
