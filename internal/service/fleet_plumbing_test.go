package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// gate returns a run function that blocks until release is closed,
// for holding the queue at a known depth.
func gatedScheduler(t *testing.T, opt SchedulerOptions) (*Scheduler, chan struct{}) {
	t.Helper()
	s := NewScheduler(opt)
	release := make(chan struct{})
	inner := s.run
	s.run = func(spec sim.RunSpec, donor *mem.Hierarchy) (stats.Results, error) {
		<-release
		return inner(spec, donor)
	}
	return s, release
}

func TestAdmissionControl(t *testing.T) {
	s, release := gatedScheduler(t, SchedulerOptions{Workers: 1, MaxQueue: 2})

	b1, err := s.Submit([]Job{testJob("a", 32), testJob("b", 64)})
	if err != nil {
		t.Fatalf("submit within bound: %v", err)
	}
	// Queue now holds 2 unfinished misses: the node is at its bound.
	if err := s.Ready(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Ready at bound = %v, want ErrOverloaded", err)
	}
	if _, err := s.Submit([]Job{testJob("c", 128)}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit over bound = %v, want ErrOverloaded", err)
	}
	if got := s.rejected.Load(); got != 1 {
		t.Fatalf("BatchesRejected = %d, want 1", got)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := b1.Wait(ctx); err != nil {
		t.Fatalf("wait: %v", err)
	}
	// Drained queue: admission recovers without any reset call.
	waitUntil(t, func() bool { return s.Ready() == nil })
	if _, err := s.Submit([]Job{testJob("c", 128)}); err != nil {
		t.Fatalf("submit after drain-down: %v", err)
	}
}

// TestIdleAdmitsOversizedBatch: an idle node admits a batch with more
// misses than its queue bound, which could otherwise never run. It is
// then not ready, and refuses the next batch, until the queue drains
// below the bound.
func TestIdleAdmitsOversizedBatch(t *testing.T) {
	s, release := gatedScheduler(t, SchedulerOptions{Workers: 1, MaxQueue: 2})
	b, err := s.Submit([]Job{testJob("a", 32), testJob("b", 64), testJob("c", 128)})
	if err != nil {
		t.Fatalf("3-miss batch on an idle node with bound 2: %v", err)
	}
	if err := s.Ready(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Ready over bound = %v, want ErrOverloaded", err)
	}
	if _, err := s.Submit([]Job{testJob("d", 16)}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit behind the oversized batch = %v, want ErrOverloaded", err)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := b.Wait(ctx); err != nil {
		t.Fatalf("wait: %v", err)
	}
	waitUntil(t, func() bool { return s.Ready() == nil })
}

// TestAdmissionIgnoresCacheHits: a batch of pure cache hits costs no
// simulation, so it is admitted even at the queue bound.
func TestAdmissionIgnoresCacheHits(t *testing.T) {
	s := NewScheduler(SchedulerOptions{Workers: 1, MaxQueue: 1})
	b, err := s.Submit([]Job{testJob("h", 64)})
	if err != nil {
		t.Fatalf("seed submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := b.Wait(ctx); err != nil {
		t.Fatalf("seed wait: %v", err)
	}

	s2, release := gatedScheduler(t, SchedulerOptions{Workers: 1, MaxQueue: 1, Cache: s.cache})
	defer close(release)
	if _, err := s2.Submit([]Job{testJob("fill", 32)}); err != nil {
		t.Fatalf("fill submit: %v", err)
	}
	// Queue is at the bound; the all-hits batch must still pass.
	hb, err := s2.Submit([]Job{testJob("h", 64)})
	if err != nil {
		t.Fatalf("all-hits batch rejected at bound: %v", err)
	}
	if st := hb.Status(); st.State != StateDone || st.CacheHits != 1 {
		t.Fatalf("all-hits batch status = %+v, want done with 1 hit", st)
	}
}

func TestDrainRejectsAndCompletes(t *testing.T) {
	s, release := gatedScheduler(t, SchedulerOptions{Workers: 1})
	b, err := s.Submit([]Job{testJob("a", 32)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	s.StartDrain()
	if err := s.Ready(); !errors.Is(err, ErrDraining) {
		t.Fatalf("Ready while draining = %v, want ErrDraining", err)
	}
	if _, err := s.Submit([]Job{testJob("b", 64)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}

	// Drain blocks until the in-flight point lands, then returns.
	done := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { done <- s.Drain(ctx) }()
	select {
	case err := <-done:
		t.Fatalf("Drain returned %v before in-flight work finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := b.Status(); st.State != StateDone {
		t.Fatalf("batch state after drain = %s, want done", st.State)
	}
}

// TestHTTPPlumbing drives the production endpoints over real HTTP:
// readiness flips with drain, /drainz initiates it, metrics render with
// live values, and admission errors map to 429/503 with Retry-After.
func TestHTTPPlumbing(t *testing.T) {
	s, release := gatedScheduler(t, SchedulerOptions{Workers: 1, MaxQueue: 1})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := client.Ready(ctx); err != nil {
		t.Fatalf("Ready on idle node: %v", err)
	}
	if _, err := client.Submit(ctx, []Job{testJob("a", 32)}); err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Bound reached: submit → 429 + Retry-After, readiness → not ready.
	resp, err := http.Post(srv.URL+"/v1/batches", "application/json",
		strings.NewReader(`{"jobs":[{"name":"b","config":`+testJobConfigJSON(t, 64)+`,"trace":{"kernel":"stream","n":6000},"insts":1500}]}`))
	if err != nil {
		t.Fatalf("overload submit: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 carried no Retry-After")
	}
	if err := client.Ready(ctx); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Ready over bound = %v, want ErrNotReady", err)
	}

	// Drain via the endpoint: readiness stays down even after the queue
	// empties, and submissions map to 503.
	dresp, err := http.Post(srv.URL+"/drainz", "", nil)
	if err != nil {
		t.Fatalf("drainz: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("drainz status = %d, want 200", dresp.StatusCode)
	}
	close(release)
	waitUntil(t, func() bool { return s.queued.Load() == 0 })
	if err := client.Ready(ctx); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Ready while draining = %v, want ErrNotReady", err)
	}
	if _, err := client.Submit(ctx, []Job{testJob("c", 128)}); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("submit while draining = %v, want 503", err)
	}

	// Metrics reflect the node's history.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	body := buf.String()
	for _, want := range []string{
		"ooosim_batches_submitted_total 1",
		"ooosim_batches_rejected_total 2", // the 429 and the 503
		"ooosim_simulations_total 1",
		"ooosim_queue_depth 0",
		"ooosim_draining 1",
		"ooosim_ready 0",
		"ooosim_worker_slots 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}

	// Liveness is not readiness: /healthz stays 200 throughout.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", hresp.StatusCode)
	}
}

// testJobConfigJSON marshals testJob's config for hand-built requests.
func testJobConfigJSON(t *testing.T, iq int) string {
	t.Helper()
	raw, err := json.Marshal(testJob("x", iq).Config)
	if err != nil {
		t.Fatalf("marshal config: %v", err)
	}
	return string(raw)
}

// TestDonorExchangeAdoptsFromHome boots two workers sharing a canonical
// peer list and runs the same snapshot group on both: exactly one node
// (the group's home) warms the donor, the other adopts it over HTTP,
// and both produce byte-identical results.
func TestDonorExchangeAdoptsFromHome(t *testing.T) {
	// Handlers are wired after the schedulers exist; the indirection
	// lets each exchange know both URLs up front.
	var handlers [2]http.Handler
	var servers [2]*httptest.Server
	for i := range servers {
		i := i
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].ServeHTTP(w, r)
		}))
		defer servers[i].Close()
	}
	peers := []string{servers[0].URL, servers[1].URL}

	scheds := make([]*Scheduler, 2)
	for i := range scheds {
		scheds[i] = NewScheduler(SchedulerOptions{
			Workers: 2,
			Donors:  NewDonorExchange(peers[i], peers),
		})
		handlers[i] = NewHandler(scheds[i])
	}

	// Same group (same recipe + warm shape) on both nodes: three configs
	// differing only in IQ size share one donor.
	jobs := []Job{testJob("a", 32), testJob("b", 64), testJob("c", 128)}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	results := make([]BatchStatus, 2)
	for i, s := range scheds {
		b, err := s.Submit(jobs)
		if err != nil {
			t.Fatalf("node %d submit: %v", i, err)
		}
		st, err := b.Wait(ctx)
		if err != nil {
			t.Fatalf("node %d wait: %v", i, err)
		}
		if len(st.Errors) > 0 {
			t.Fatalf("node %d errors: %v", i, st.Errors)
		}
		results[i] = st
	}

	// Both nodes answered with byte-identical results: the adopted donor
	// forks exactly like the locally warmed one.
	for p := range jobs {
		if !bytes.Equal(results[0].Results[p], results[1].Results[p]) {
			t.Errorf("point %d differs between nodes", p)
		}
	}

	var adoptedTotal, builtTotal, shippedTotal uint64
	for i, s := range scheds {
		adopted, built, shipped, fails := s.Donors().Stats()
		t.Logf("node %d: adopted=%d built=%d shipped=%d fetchFails=%d", i, adopted, built, shipped, fails)
		if fails != 0 {
			t.Errorf("node %d had %d donor fetch failures", i, fails)
		}
		adoptedTotal += adopted
		builtTotal += built
		shippedTotal += shipped
	}
	// One group, two nodes: one build fleet-wide (on the home node,
	// possibly on demand), one adoption, one shipment.
	if builtTotal != 1 {
		t.Errorf("fleet built %d donors for 1 group, want exactly 1", builtTotal)
	}
	if adoptedTotal != 1 || shippedTotal != 1 {
		t.Errorf("adopted=%d shipped=%d, want 1 and 1", adoptedTotal, shippedTotal)
	}
}

// TestDonorEndpointContract covers the shipping endpoint directly: 404
// for a lookup without a spec, 400 for a spec that does not hash to the
// key or cannot be warmed (a bad warm length or cache geometry), and
// build-on-demand for a valid spec, including a sampled group whose
// recipe passes the materialisation cap.
func TestDonorEndpointContract(t *testing.T) {
	s := NewScheduler(SchedulerOptions{
		Donors: NewDonorExchange("", nil), // serve-only node
	})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	spec := testJob("x", 64).group()
	// Nodes of a fleet must agree on a group's key and wire spec: a
	// natural-length group's spec carries no warm length, and its key
	// is pinned.
	const wantKey = "695b382e78f53334e13f537e9e3343efd04d23c98447708cb73f6291f048f7db"
	if got := DonorKey(spec); got != wantKey {
		t.Errorf("DonorKey = %s, want %s", got, wantKey)
	}
	if raw, err := json.Marshal(spec); err != nil || bytes.Contains(raw, []byte(`"len"`)) {
		t.Errorf("natural-length spec %s (%v) carries a warm length", raw, err)
	}
	encode := func(g sim.WarmGroup) string {
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		return base64.RawURLEncoding.EncodeToString(raw)
	}
	other := sim.WarmGroup{Trace: trace.Recipe{Kernel: trace.KernelStream, N: 4000}, Warm: spec.Warm}
	program := sim.WarmGroup{Trace: trace.Recipe{Kernel: trace.KernelProgram, Program: "isort", Input: 150, Seed: 42}, Warm: spec.Warm, Len: 10_000}
	tooLong := sim.WarmGroup{Trace: other.Trace, Warm: spec.Warm, Len: trace.MaxStreamInsts + 1}
	pastCap := sim.WarmGroup{Trace: trace.Recipe{Kernel: trace.KernelStream, N: trace.MaxRecipeInsts + 1}, Warm: spec.Warm, Len: 10_000}
	badCache := spec
	badCache.Warm.L2.SizeBytes = 3
	for _, c := range []struct {
		name, key, spec string
		want            int
	}{
		{"no spec, nothing warmed", DonorKey(spec), "", http.StatusNotFound},
		// Hand-built URL; the client always recomputes the key.
		{"spec of another key", DonorKey(spec), encode(other), http.StatusBadRequest},
		{"warm length on a program", DonorKey(program), encode(program), http.StatusBadRequest},
		{"warm length past the stream cap", DonorKey(tooLong), encode(tooLong), http.StatusBadRequest},
		{"cache geometry no donor can have", DonorKey(badCache), encode(badCache), http.StatusBadRequest},
		{"sampled recipe past the materialisation cap", DonorKey(pastCap), encode(pastCap), http.StatusOK},
	} {
		url := srv.URL + "/v1/donors/" + c.key
		if c.spec != "" {
			url += "?spec=" + c.spec
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: HTTP %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}

	// With the right spec the endpoint builds on demand and ships a
	// snapshot that restores to the same warm key.
	dx := NewDonorExchange("", []string{srv.URL})
	donor, err := dx.fetch(srv.URL, spec)
	if err != nil {
		t.Fatalf("on-demand fetch: %v", err)
	}
	if donor.WarmKey() != spec.Warm {
		t.Fatalf("restored warm key %+v, want %+v", donor.WarmKey(), spec.Warm)
	}
	// The server counts a shipment after its write returns, which can be
	// after the client has read the whole body: wait for the count.
	waitUntil(t, func() bool { _, _, shipped, _ := s.Donors().Stats(); return shipped == 2 })
	if _, built, _, _ := s.Donors().Stats(); built != 2 {
		t.Fatalf("server built %d donors, want 2", built)
	}
}

// TestDonorWithoutDigestIsNotAdopted: a peer that serves a valid
// snapshot without its digest header is treated as a digest mismatch.
// The fetch is retried, then the node warms the donor itself, and the
// point's result is sim.Run's.
func TestDonorWithoutDigestIsNotAdopted(t *testing.T) {
	job := testJob("x", 64)
	tr, err := job.Trace.Materialise()
	if err != nil {
		t.Fatal(err)
	}
	h, err := job.group().WarmDonor(tr)
	if err != nil {
		t.Fatal(err)
	}
	var snapshot bytes.Buffer
	if err := h.WriteSnapshot(&snapshot); err != nil {
		t.Fatal(err)
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(snapshot.Bytes())
	}))
	defer peer.Close()

	// The peer is the only entry of the peer list, so it is every
	// group's home.
	s := NewScheduler(SchedulerOptions{Workers: 1, Donors: NewDonorExchange("", []string{peer.URL})})
	b, err := s.Submit([]Job{job})
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Errors) != 0 {
		t.Fatalf("errors: %v", st.Errors)
	}
	if adopted, built, _, fails := s.Donors().Stats(); adopted != 0 || built != 1 || fails != 1 {
		t.Errorf("adopted=%d built=%d fetchFails=%d, want 0, 1 and 1", adopted, built, fails)
	}
	want, err := sim.Run(sim.RunSpec{Name: job.label(), Config: job.Config, Trace: tr, Insts: job.Insts})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Results[0], raw) {
		t.Errorf("result differs from sim.Run:\n%s\nvs\n%s", st.Results[0], raw)
	}
}

// waitUntil polls cond to true within a generous deadline.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDonorGetsWithoutSpecKeepWarmedDonors: a GET without a spec only
// looks a donor up. Were it to insert an entry for its key, 200 GETs for
// unknown keys would flush the donor memo past its bound, and the warmed
// donor would then answer 404, making the home node warm the group a
// second time for the next peer.
func TestDonorGetsWithoutSpecKeepWarmedDonors(t *testing.T) {
	s := NewScheduler(SchedulerOptions{Donors: NewDonorExchange("", nil)})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()
	spec := testJob("x", 64).group()
	if _, err := NewDonorExchange("", nil).fetch(srv.URL, spec); err != nil {
		t.Fatalf("spec fetch: %v", err)
	}
	get := func(key string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/donors/" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := range 200 {
		if code := get(fmt.Sprintf("%064x", i)); code != http.StatusNotFound {
			t.Fatalf("unknown key %d: HTTP %d, want 404", i, code)
		}
	}
	if code := get(DonorKey(spec)); code != http.StatusOK {
		t.Fatalf("warmed donor after 200 unknown-key GETs: HTTP %d, want 200", code)
	}
	if _, built, _, _ := s.Donors().Stats(); built != 1 {
		t.Errorf("node built %d donors, want 1", built)
	}
}
