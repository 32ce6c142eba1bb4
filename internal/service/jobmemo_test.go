package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countJobWork counts the strict job decodes and the validate-and-
// fingerprint checks the job memos run, slowing each decode by delay to
// widen races. The memos belong to one handler and one Front, so a
// fresh node starts both counts at zero.
func countJobWork(t *testing.T, delay time.Duration) (decodes, checks *atomic.Int64) {
	decodes, checks = new(atomic.Int64), new(atomic.Int64)
	decode, check := strictJob, checkJob
	strictJob = func(raw []byte) (Job, error) {
		decodes.Add(1)
		time.Sleep(delay)
		return decode(raw)
	}
	checkJob = func(j Job) (string, error) {
		checks.Add(1)
		return check(j)
	}
	t.Cleanup(func() { strictJob, checkJob = decode, check })
	return decodes, checks
}

// submitBody posts a raw submission to a scheduler's handler, requires
// 202, and returns the batch once it has finished.
func submitBody(t *testing.T, s *Scheduler, url, body string) (*Batch, BatchStatus) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batches", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st BatchStatus
	if resp.StatusCode != http.StatusAccepted || json.NewDecoder(resp.Body).Decode(&st) != nil {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	b, ok := s.Batch(st.ID)
	if !ok {
		t.Fatalf("batch %s not found", st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st, err = b.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if len(st.Errors) != 0 {
		t.Fatalf("batch errors: %v", st.Errors)
	}
	return b, st
}

// batchBody marshals jobs as a submission body.
func batchBody(t *testing.T, jobs ...Job) string {
	t.Helper()
	raw, err := json.Marshal(submitRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestJobMemoRemembersRepeats: resubmitting identical bytes decodes and
// fingerprints nothing again, and a whitespace or field-order variant of
// a remembered job is decoded once more but reaches the same fingerprint
// and the same cache hit.
func TestJobMemoRemembersRepeats(t *testing.T) {
	decodes, checks := countJobWork(t, 0)
	s := NewScheduler(SchedulerOptions{Workers: 2})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	// Three distinct jobs, one of them twice in the batch.
	body := batchBody(t, testJob("a", 32), testJob("b", 64), testJob("c", 128), testJob("a", 32))
	first, st1 := submitBody(t, s, srv.URL, body)
	if d, c := decodes.Load(), checks.Load(); d != 3 || c != 3 {
		t.Fatalf("first submission: %d decodes, %d checks; want 3 and 3", d, c)
	}
	second, st2 := submitBody(t, s, srv.URL, body)
	if d, c := decodes.Load(), checks.Load(); d != 3 || c != 3 {
		t.Errorf("identical resubmission: %d decodes, %d checks; want still 3 and 3", d, c)
	}
	if st2.CacheHits != 4 {
		t.Errorf("identical resubmission: %d/4 cache hits", st2.CacheHits)
	}
	for i := range st1.Results {
		if string(st1.Results[i]) != string(st2.Results[i]) || first.Fingerprints()[i] != second.Fingerprints()[i] {
			t.Errorf("point %d: resubmission answered differently", i)
		}
	}

	// testJob("b", 64) with its fields reordered and spaced out.
	variant := fmt.Sprintf(`{"jobs":[ { "insts": 1500,
		"trace": {"n": 6000, "kernel": "stream"},
		"config": %s, "name": "b" } ]}`, testJobConfigJSON(t, 64))
	third, st3 := submitBody(t, s, srv.URL, variant)
	if d, c := decodes.Load(), checks.Load(); d != 4 || c != 3 {
		t.Errorf("reformatted job: %d decodes, %d checks; want 4 and 3", d, c)
	}
	if third.Fingerprints()[0] != first.Fingerprints()[1] || st3.CacheHits != 1 ||
		string(st3.Results[0]) != string(st1.Results[1]) {
		t.Errorf("reformatted job missed its twin's fingerprint or cache entry (hits %d)", st3.CacheHits)
	}
}

// TestJobMemoStaysStrict: a memo hit never widens what is admitted. An
// unknown-field twin of a remembered job is rejected, and a job that
// fails decoding or validation is rejected on every submission, each
// time under its own index in that batch, and is never admitted.
func TestJobMemoStaysStrict(t *testing.T) {
	decodes, checks := countJobWork(t, 0)
	s := NewScheduler(SchedulerOptions{Workers: 2})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	good, other := testJob("good", 64), testJob("other", 32)
	submitBody(t, s, srv.URL, batchBody(t, good))
	raw, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}
	twin := strings.Replace(string(raw), `"name":"good"`, `"name":"good","nmae":"good"`, 1)
	if code, msg := postBatch(t, srv.URL, `{"jobs":[`+twin+`]}`); code != http.StatusBadRequest || !strings.Contains(msg, "nmae") {
		t.Errorf("unknown-field twin of a remembered job: status %d (%s), want 400 naming nmae", code, msg)
	}

	invalid := testJob("bad", 64)
	invalid.Trace.Kernel = "quicksort"
	mistyped := strings.Replace(string(raw), `"insts":1500`, `"insts":"many"`, 1)
	for round := range 2 {
		for _, c := range []struct{ body, want string }{
			{batchBody(t, invalid), "job 0 (bad)"},
			{batchBody(t, good, invalid), "job 1 (bad)"},
			{batchBody(t, good, other, invalid), "job 2 (bad)"},
			{`{"jobs":[` + mistyped + `]}`, "job 0: "},
			{`{"jobs":[` + string(raw) + "," + mistyped + `]}`, "job 1: "},
		} {
			code, msg := postBatch(t, srv.URL, c.body)
			if code != http.StatusBadRequest || !strings.Contains(msg, c.want) {
				t.Errorf("round %d: status %d (%s), want 400 naming %q", round, code, msg, c.want)
			}
		}
	}
	// good, other, invalid and the twin were each decoded once, and the
	// mistyped job once; good, other and invalid were each checked once.
	if d, c := decodes.Load(), checks.Load(); d != 5 || c != 3 {
		t.Errorf("%d decodes and %d checks, want 5 and 3: failures are remembered too", d, c)
	}
	if _, err := s.Submit([]Job{invalid}); err == nil || !strings.Contains(err.Error(), "quicksort") {
		t.Errorf("in-process submission of the remembered invalid job: %v, want its validation error", err)
	}
	if _, _, points, _ := s.Counts(); points != 1 {
		t.Errorf("%d points admitted, want only the first good one", points)
	}
}

// TestJobMemoConcurrentDecodeOnce: concurrent identical submissions
// share one decode and one fingerprint (run under -race in CI).
func TestJobMemoConcurrentDecodeOnce(t *testing.T) {
	decodes, checks := countJobWork(t, 20*time.Millisecond)
	s := NewScheduler(SchedulerOptions{Workers: 2})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	body := batchBody(t, testJob("same", 64))
	const n = 8
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/batches", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st BatchStatus
			if resp.StatusCode != http.StatusAccepted || json.NewDecoder(resp.Body).Decode(&st) != nil {
				t.Errorf("submission %d: status %d, want 202", i, resp.StatusCode)
			}
			ids[i] = st.ID
		}()
	}
	wg.Wait()
	if d, c := decodes.Load(), checks.Load(); d != 1 || c != 1 {
		t.Errorf("%d concurrent identical submissions: %d decodes, %d checks; want 1 and 1", n, d, c)
	}
	var first string
	for i, id := range ids {
		b, ok := s.Batch(id)
		if !ok {
			t.Fatalf("submission %d: batch %q not found", i, id)
		}
		st, err := b.Wait(context.Background())
		if err != nil || len(st.Errors) != 0 {
			t.Fatalf("submission %d: %v %v", i, err, st.Errors)
		}
		if i == 0 {
			first = string(st.Results[0])
		} else if string(st.Results[0]) != first {
			t.Errorf("submission %d answered differently", i)
		}
	}
}
