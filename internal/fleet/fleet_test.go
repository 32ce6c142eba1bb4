package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// policyBatch builds a small figure-9-shaped batch covering all four
// commit policies (rob baseline, checkpoint, adaptive, oracle) over
// several workloads — the byte-identity surface the fleet must
// preserve.
func policyBatch(insts uint64) []service.Job {
	n := trace.LenFor(insts)
	recipes := []trace.Recipe{
		{Kernel: trace.KernelStream, N: n},
		{Kernel: trace.KernelStrided, N: n, Stride: 8},
		{Kernel: trace.KernelFPMix, N: n, Seed: 42},
	}
	cfgs := []config.Config{
		config.BaselineSized(128),
		config.CheckpointDefault(32, 512),
		config.CheckpointDefault(64, 512),
		config.AdaptiveDefault(64, 512),
		config.OracleDefault(),
	}
	var jobs []service.Job
	for _, cfg := range cfgs {
		for _, r := range recipes {
			jobs = append(jobs, service.Job{Name: r.Kernel + "/" + string(cfg.Commit), Config: cfg, Trace: r, Insts: insts})
		}
	}
	return jobs
}

// singleNodeBytes runs jobs on one plain scheduler and returns the raw
// result bytes per point — the reference every fleet topology must
// reproduce exactly.
func singleNodeBytes(t *testing.T, jobs []service.Job) []json.RawMessage {
	t.Helper()
	s := service.NewScheduler(service.SchedulerOptions{})
	b, err := s.Submit(jobs)
	if err != nil {
		t.Fatalf("single-node submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := b.Wait(ctx)
	if err != nil {
		t.Fatalf("single-node wait: %v", err)
	}
	if len(st.Errors) > 0 {
		t.Fatalf("single-node errors: %v", st.Errors)
	}
	return st.Results
}

// TestFleetByteIdenticalToSingleNode is the PR's acceptance test: a
// three-worker fleet behind a coordinator answers a full four-policy
// batch with bytes identical to one plain scheduler, while warm donors
// ship between workers (fewer builds than nodes x groups, at least one
// adoption).
func TestFleetByteIdenticalToSingleNode(t *testing.T) {
	jobs := policyBatch(1500)
	want := singleNodeBytes(t, jobs)

	lb, err := NewLoopback(3, 1, Options{PingInterval: 100 * time.Millisecond}, nil)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	defer lb.Close()
	scheds := lb.Schedulers

	// Through the front door: the coordinator's HTTP surface is the
	// worker API, so the plain service client drives it unchanged.
	client := &service.Client{BaseURL: lb.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	got := make([]json.RawMessage, len(jobs))
	st, err := client.Submit(ctx, jobs)
	if err != nil {
		t.Fatalf("fleet submit: %v", err)
	}
	err = client.Stream(ctx, st.ID, func(ev service.Event) error {
		if ev.Type == "error" {
			return fmt.Errorf("point %d (%s): %s", ev.Index, ev.Name, ev.Error)
		}
		if ev.Type == "result" {
			got[ev.Index] = append(json.RawMessage(nil), ev.Results...)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("fleet stream: %v", err)
	}
	for i := range want {
		if string(want[i]) != string(got[i]) {
			t.Errorf("point %d (%s): fleet bytes differ from single node", i, jobs[i].Name)
		}
	}

	// Donor shipping engaged: the fleet warmed each snapshot group once
	// (one home build each), not once per node, and at least one worker
	// adopted a peer's donor instead of re-warming.
	groups := service.NewBatch("probe", jobs, make([]string, len(jobs))).Status().SnapshotGroups
	var adopted, built uint64
	for i, s := range scheds {
		a, b, sh, f := s.Donors().Stats()
		t.Logf("worker %d: adopted=%d built=%d shipped=%d fetchFails=%d", i, a, b, sh, f)
		adopted += a
		built += b
		if f != 0 {
			t.Errorf("worker %d had %d donor fetch failures", i, f)
		}
	}
	if adopted == 0 {
		t.Errorf("no worker adopted a donor from a peer")
	}
	if built >= uint64(len(scheds)*groups) {
		t.Errorf("fleet built %d donors for %d groups on %d nodes — shipping saved nothing", built, groups, len(scheds))
	}
}

// TestFleetReroutesAroundDeadNode kills a worker mid-batch and asserts
// the coordinator routes its unfinished points to the survivor with the
// final batch still byte-identical to a single node, across all four
// commit policies.
func TestFleetReroutesAroundDeadNode(t *testing.T) {
	jobs := policyBatch(30000) // ~10-30ms per point: a wide kill window
	want := singleNodeBytes(t, jobs)

	// One slot per worker serialises each node: a wide mid-batch kill window.
	lb, err := NewLoopback(2, 1, Options{PingInterval: time.Hour, Log: t.Logf}, nil)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	defer lb.Close()
	coord := lb.Coord

	b, err := coord.Submit(jobs)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Let the batch get rolling, then kill one worker while both still
	// hold pending points (each worker is single-threaded and owns ~half
	// the batch, so at one completion the victim has work outstanding).
	deadline := time.Now().Add(30 * time.Second)
	for b.Status().Done < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("batch never started completing")
		}
		time.Sleep(2 * time.Millisecond)
	}
	lb.Kill(1)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := b.Wait(ctx)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if len(st.Errors) > 0 {
		t.Fatalf("batch errors after node kill: %v", st.Errors)
	}
	for i := range want {
		if string(want[i]) != string(st.Results[i]) {
			t.Errorf("point %d (%s): bytes differ after re-route", i, jobs[i].Name)
		}
	}
	if coord.metrics.NodeFailures.Load() == 0 {
		t.Errorf("coordinator never marked the killed node down")
	}
	if coord.metrics.Reroutes.Load() == 0 {
		t.Errorf("coordinator never re-routed a point")
	}
}

// fakeWorker implements service.BatchAPI with externally released
// completions, for deterministic coordinator-logic tests without real
// simulations. Results are synthesised from the job name.
type fakeWorker struct {
	mu      sync.Mutex
	batches map[string]*service.Batch
	nextID  int
	points  atomic.Int64 // points ever submitted to this worker
	release chan struct{}
	// fail, when set before the worker serves, fails every point with it.
	fail error
}

func newFakeWorker() *fakeWorker {
	return &fakeWorker{batches: map[string]*service.Batch{}, release: make(chan struct{})}
}

func (f *fakeWorker) Submit(jobs []service.Job) (*service.Batch, error) {
	fps := make([]string, len(jobs))
	for i, j := range jobs {
		fp, err := j.Fingerprint()
		if err != nil {
			return nil, err
		}
		fps[i] = fp
	}
	f.mu.Lock()
	f.nextID++
	b := service.NewBatch(fmt.Sprintf("fake%d", f.nextID), jobs, fps)
	f.batches[b.ID()] = b
	f.mu.Unlock()
	f.points.Add(int64(len(jobs)))
	go func() {
		<-f.release
		for i, j := range jobs {
			if f.fail != nil {
				b.Complete(i, nil, false, f.fail)
				continue
			}
			b.Complete(i, json.RawMessage(fmt.Sprintf(`{"name":%q}`, j.Name)), false, nil)
		}
	}()
	return b, nil
}

func (f *fakeWorker) Batch(id string) (*service.Batch, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.batches[id]
	return b, ok
}

// TestFleetSingleflightAcrossBatches: two concurrent batches sharing a
// fingerprint submit it downstream once; the follower adopts the
// leader's bytes and reports cached.
func TestFleetSingleflightAcrossBatches(t *testing.T) {
	fake := newFakeWorker()
	srv := httptest.NewServer(service.NewAPIHandler(fake, service.HandlerOptions{}))
	defer srv.Close()

	coord, err := New(Options{Workers: []string{srv.URL}, PingInterval: time.Hour})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()

	job := service.Job{
		Name:   "shared",
		Config: config.CheckpointDefault(64, 512),
		Trace:  trace.Recipe{Kernel: trace.KernelStream, N: 6000},
		Insts:  1500,
	}
	b1, err := coord.Submit([]service.Job{job})
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	// The leader's point must be downstream before the follower joins.
	waitFor(t, func() bool { return fake.points.Load() == 1 })
	b2, err := coord.Submit([]service.Job{job})
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	// Submit returns before the batch's dispatch goroutine runs: release
	// the leader only once the follower has joined its flight, or the
	// leader may finish first and the second batch lead a fresh one.
	waitFor(t, func() bool { return coord.metrics.PointsDeduped.Load() == 1 })

	close(fake.release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st1, err := b1.Wait(ctx)
	if err != nil {
		t.Fatalf("wait 1: %v", err)
	}
	st2, err := b2.Wait(ctx)
	if err != nil {
		t.Fatalf("wait 2: %v", err)
	}

	if got := fake.points.Load(); got != 1 {
		t.Errorf("worker saw %d points, want 1 (cross-batch singleflight)", got)
	}
	if string(st1.Results[0]) != string(st2.Results[0]) {
		t.Errorf("follower bytes differ from leader")
	}
	if st2.CacheHits != 1 {
		t.Errorf("follower batch reported %d cache hits, want 1", st2.CacheHits)
	}
	if coord.metrics.PointsDeduped.Load() != 1 {
		t.Errorf("PointsDeduped = %d, want 1", coord.metrics.PointsDeduped.Load())
	}
}

// TestFleetAdmissionAndDrain mirrors the worker plumbing tests at the
// coordinator: queue bound rejects with ErrOverloaded, drain rejects
// with ErrDraining and runs the queue dry.
func TestFleetAdmissionAndDrain(t *testing.T) {
	fake := newFakeWorker()
	srv := httptest.NewServer(service.NewAPIHandler(fake, service.HandlerOptions{}))
	defer srv.Close()

	coord, err := New(Options{Workers: []string{srv.URL}, MaxQueue: 1, PingInterval: time.Hour})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()

	job := service.Job{
		Name:   "q",
		Config: config.CheckpointDefault(64, 512),
		Trace:  trace.Recipe{Kernel: trace.KernelStream, N: 6000},
		Insts:  1500,
	}
	b, err := coord.Submit([]service.Job{job})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := coord.Ready(); !errors.Is(err, service.ErrOverloaded) {
		t.Fatalf("Ready at bound = %v, want ErrOverloaded", err)
	}
	job2 := job
	job2.Insts = 3000
	if _, err := coord.Submit([]service.Job{job2}); !errors.Is(err, service.ErrOverloaded) {
		t.Fatalf("submit over bound = %v, want ErrOverloaded", err)
	}

	coord.StartDrain()
	if _, err := coord.Submit([]service.Job{job2}); !errors.Is(err, service.ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
	close(fake.release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := b.Status(); st.State != service.StateDone {
		t.Fatalf("batch state after drain = %s, want done", st.State)
	}
}

// TestFleetBreakerOpensOnProbeFailures: failed health probes trip a
// node's breaker at the threshold, surface in the per-node probe
// metric, and probation (half-open) re-admits the node after cooldown.
func TestFleetBreakerOpensOnProbeFailures(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close() // probes now fail fast with connection refused

	coord, err := New(Options{
		Workers:          []string{dead},
		PingInterval:     time.Hour, // probe manually via pingOnce
		PingTimeout:      500 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  80 * time.Millisecond,
		Log:              t.Logf,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	n := coord.nodes[0]

	coord.pingOnce()
	if !n.breaker.Allow() {
		t.Fatalf("one probe failure opened a threshold-2 breaker")
	}
	coord.pingOnce()
	if n.breaker.Allow() {
		t.Fatalf("breaker still closed after %d probe failures", 2)
	}
	if got := n.probeFails.Load(); got != 2 {
		t.Errorf("probeFails = %d, want 2", got)
	}
	if got := coord.metrics.BreakerTrips.Load(); got != 1 {
		t.Errorf("BreakerTrips = %d, want 1", got)
	}
	if err := coord.Ready(); err == nil {
		t.Errorf("Ready() = nil with every breaker open")
	}
	var buf bytes.Buffer
	coord.WriteMetrics(&buf)
	if want := fmt.Sprintf("ooosim_fleet_node_probe_failures_total{node=%q} 2", dead); !strings.Contains(buf.String(), want) {
		t.Errorf("metrics missing %q:\n%s", want, buf.String())
	}
	if want := fmt.Sprintf("ooosim_fleet_node_up{node=%q} 0", dead); !strings.Contains(buf.String(), want) {
		t.Errorf("metrics missing %q:\n%s", want, buf.String())
	}

	// Cooldown elapses: probation routes one try at the node again.
	waitFor(t, func() bool { return n.breaker.Allow() })
	if st := n.breaker.State(); st != "half-open" {
		t.Errorf("post-cooldown breaker state = %s, want half-open", st)
	}
}

// TestFleetBreakerClosesOnProbeRecovery: a dispatch-opened breaker
// closes the moment a health probe reaches the worker again — no
// cooldown wait, no operator action.
func TestFleetBreakerClosesOnProbeRecovery(t *testing.T) {
	fake := newFakeWorker()
	srv := httptest.NewServer(service.NewAPIHandler(fake, service.HandlerOptions{}))
	defer srv.Close()

	coord, err := New(Options{
		Workers:          []string{srv.URL},
		PingInterval:     time.Hour,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour, // recovery must come from the probe, not the cooldown
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	n := coord.nodes[0]

	coord.markDown(n, errors.New("synthetic dispatch failure"))
	if n.breaker.Allow() {
		t.Fatalf("threshold-1 breaker stayed closed after a dispatch failure")
	}
	if len(coord.readyNodes()) != 0 {
		t.Fatalf("open-breaker node still in the routing set")
	}

	coord.pingOnce()
	if st := n.breaker.State(); st != "closed" {
		t.Fatalf("breaker state after live probe = %s, want closed", st)
	}
	if len(coord.readyNodes()) != 1 {
		t.Fatalf("recovered node missing from the routing set")
	}
}

// TestFleetRetryBudgetExhausted: with every dispatch failing and a
// budget of one node failure per point, the batch completes with
// routing errors instead of hanging, and the exhaustion metric counts
// each point.
func TestFleetRetryBudgetExhausted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	coord, err := New(Options{
		Workers:      []string{dead},
		PingInterval: time.Hour,
		RetryBudget:  1,
		NoNodesGrace: 100 * time.Millisecond,
		Log:          t.Logf,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()

	jobs := []service.Job{
		{Name: "a", Config: config.CheckpointDefault(64, 512), Trace: trace.Recipe{Kernel: trace.KernelStream, N: 6000}, Insts: 1500},
		{Name: "b", Config: config.CheckpointDefault(32, 512), Trace: trace.Recipe{Kernel: trace.KernelStream, N: 6000}, Insts: 1500},
	}
	b, err := coord.Submit(jobs)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := b.Wait(ctx)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if len(st.Errors) != len(jobs) {
		t.Fatalf("errors = %v, want one per point", st.Errors)
	}
	for _, e := range st.Errors {
		if !strings.Contains(e, "retry budget") {
			t.Errorf("error %q does not mention the retry budget", e)
		}
	}
	if got := coord.metrics.RetryExhausted.Load(); got != uint64(len(jobs)) {
		t.Errorf("RetryExhausted = %d, want %d", got, len(jobs))
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// traffic is what a server has received: every request, the event
// streams among them, and the point count of each batch submit.
type traffic struct {
	requests, streams int
	submits           []int
}

// requestLog records the traffic a handler serves.
type requestLog struct {
	h  http.Handler
	mu sync.Mutex
	t  traffic
}

func (l *requestLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	l.t.requests++
	switch {
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/events"):
		l.t.streams++
	case r.Method == http.MethodPost && r.URL.Path == "/v1/batches":
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req struct{ Jobs []json.RawMessage }
		json.Unmarshal(body, &req)
		l.t.submits = append(l.t.submits, len(req.Jobs))
	}
	l.mu.Unlock()
	l.h.ServeHTTP(w, r)
}

// seen returns the traffic so far.
func (l *requestLog) seen() traffic {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.t
	t.submits = slices.Clone(t.submits)
	return t
}

// TestFleetWarmResubmitContactsNoWorker: resubmitting a batch through
// the coordinator costs one HTTP request. The coordinator answers every
// point from its memory, its 202 submit response is finished at
// admission (so the client opens no /events stream), and no worker
// receives a request; the bytes match the first pass. A batch holding
// one miss sends exactly that point to its owner, as one single-job
// submit and one stream.
func TestFleetWarmResubmitContactsNoWorker(t *testing.T) {
	jobs := policyBatch(1500)
	var logs []*requestLog
	var urls []string
	for range 2 {
		l := &requestLog{h: service.NewHandler(service.NewScheduler(service.SchedulerOptions{Workers: 1}))}
		srv := httptest.NewServer(l)
		defer srv.Close()
		logs = append(logs, l)
		urls = append(urls, srv.URL)
	}
	coord, err := New(Options{Workers: urls, PingInterval: time.Hour})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	frontLog := &requestLog{h: NewHandler(coord)}
	front := httptest.NewServer(frontLog)
	defer front.Close()
	client := &service.Client{BaseURL: front.URL}
	run := func(jobs []service.Job) ([]json.RawMessage, service.BatchStatus) {
		t.Helper()
		ctx := context.Background()
		st, err := client.Submit(ctx, jobs)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		got := make([]json.RawMessage, len(jobs))
		err = client.Events(ctx, jobs, st, func(ev service.Event) error {
			switch ev.Type {
			case "result":
				got[ev.Index] = ev.Results
			case "error":
				return fmt.Errorf("point %d (%s): %s", ev.Index, ev.Name, ev.Error)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("events: %v", err)
		}
		return got, st
	}
	workers := func() []traffic {
		var out []traffic
		for _, l := range logs {
			out = append(out, l.seen())
		}
		return out
	}

	cold, _ := run(jobs)
	coldLog := workers()
	coldStreams := coord.metrics.WorkerStreams.Load()
	if coldLog[0].streams == 0 || coldLog[1].streams == 0 || coldStreams != uint64(coldLog[0].streams+coldLog[1].streams) {
		t.Fatalf("cold pass: worker logs %+v, coordinator counted %d streams", coldLog, coldStreams)
	}

	before := frontLog.seen().requests
	warm, st := run(jobs)
	if !st.FinishedAtAdmission(jobs) {
		t.Errorf("warm submit response not finished at admission: state %s, %d of %d cache hits", st.State, st.CacheHits, st.Total)
	}
	if n := frontLog.seen().requests - before; n != 1 {
		t.Errorf("warm batch cost %d HTTP requests at the coordinator, want 1", n)
	}
	for w, got := range workers() {
		if got.requests != coldLog[w].requests {
			t.Errorf("worker %d received %d request(s) during the warm pass", w, got.requests-coldLog[w].requests)
		}
	}
	for i := range jobs {
		if !bytes.Equal(warm[i], cold[i]) {
			t.Errorf("point %d (%s): warm bytes differ from the cold pass", i, jobs[i].Name)
		}
	}
	for _, n := range coord.nodes {
		if s := n.breaker.State(); s != "closed" {
			t.Errorf("node %s breaker %s after the warm pass", n.url, s)
		}
	}

	miss := jobs[0]
	miss.Insts++
	fp, err := miss.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	owner := sim.ShardFor(fp, len(urls))
	mixed, _ := run(append(slices.Clone(jobs), miss))
	for w, got := range workers() {
		want := coldLog[w]
		if w == owner {
			want.requests += 2 // the submit and its stream
			want.streams++
			want.submits = append(want.submits, 1)
		}
		if got.requests != want.requests || got.streams != want.streams || !slices.Equal(got.submits, want.submits) {
			t.Errorf("worker %d after the one-miss pass: %+v, want %+v (owner %d)", w, got, want, owner)
		}
	}
	if total := coord.metrics.WorkerStreams.Load(); total != coldStreams+1 {
		t.Errorf("coordinator counted %d worker streams, want %d", total, coldStreams+1)
	}
	for i := range jobs {
		if !bytes.Equal(mixed[i], cold[i]) {
			t.Errorf("point %d (%s): bytes differ in the one-miss pass", i, jobs[i].Name)
		}
	}
	var m strings.Builder
	coord.WriteMetrics(&m)
	for _, want := range []string{
		fmt.Sprintf("ooosim_fleet_worker_streams_total %d\n", coldStreams+1),
		fmt.Sprintf("ooosim_fleet_points_cached_total %d\n", 2*len(jobs)),
	} {
		if !strings.Contains(m.String(), want) {
			t.Errorf("metrics lack %q", want)
		}
	}
}

// TestFleetAllHitBatchPassesFullQueue: points the coordinator answers
// from its memory queue nothing, so while a miss holds the queue at
// MaxQueue an all-hit batch is still admitted, and finished at
// admission; a batch with one miss is refused.
func TestFleetAllHitBatchPassesFullQueue(t *testing.T) {
	fake := newFakeWorker()
	srv := httptest.NewServer(service.NewAPIHandler(fake, service.HandlerOptions{}))
	defer srv.Close()
	coord, err := New(Options{Workers: []string{srv.URL}, MaxQueue: 1, PingInterval: time.Hour})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()

	job := func(name string, insts uint64) service.Job {
		return service.Job{
			Name:   name,
			Config: config.CheckpointDefault(64, 512),
			Trace:  trace.Recipe{Kernel: trace.KernelStream, N: 6000},
			Insts:  insts,
		}
	}
	hit, pending, other := job("hit", 1500), job("pending", 3000), job("other", 4500)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	first, err := coord.Submit([]service.Job{hit})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	fake.release <- struct{}{} // finishes the first batch only
	if _, err := first.Wait(ctx); err != nil {
		t.Fatalf("wait: %v", err)
	}

	held, err := coord.Submit([]service.Job{pending})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := coord.Ready(); !errors.Is(err, service.ErrOverloaded) {
		t.Fatalf("Ready at bound = %v, want ErrOverloaded", err)
	}
	b, err := coord.Submit([]service.Job{hit, hit})
	if err != nil {
		t.Fatalf("all-hit batch at the bound: %v", err)
	}
	if st := b.Status(); !st.FinishedAtAdmission(b.Jobs()) {
		t.Errorf("all-hit batch not finished at admission: %+v", st)
	}
	if _, err := coord.Submit([]service.Job{hit, other}); !errors.Is(err, service.ErrOverloaded) {
		t.Fatalf("batch with a miss at the bound = %v, want ErrOverloaded", err)
	}
	close(fake.release)
	if _, err := held.Wait(ctx); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if got := fake.points.Load(); got != 2 {
		t.Errorf("worker saw %d points, want 2 (the hits stayed at the coordinator)", got)
	}
}

// TestFleetErrorIsNotCached: a point whose worker reports an error is
// not kept in the coordinator's memory, so resubmitting it routes to
// the worker again.
func TestFleetErrorIsNotCached(t *testing.T) {
	fake := newFakeWorker()
	fake.fail = errors.New("synthetic simulation failure")
	close(fake.release)
	srv := httptest.NewServer(service.NewAPIHandler(fake, service.HandlerOptions{}))
	defer srv.Close()
	coord, err := New(Options{Workers: []string{srv.URL}, PingInterval: time.Hour})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()

	job := service.Job{
		Name:   "fails",
		Config: config.CheckpointDefault(64, 512),
		Trace:  trace.Recipe{Kernel: trace.KernelStream, N: 6000},
		Insts:  1500,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for pass := 1; pass <= 2; pass++ {
		b, err := coord.Submit([]service.Job{job})
		if err != nil {
			t.Fatalf("pass %d: submit: %v", pass, err)
		}
		st, err := b.Wait(ctx)
		if err != nil {
			t.Fatalf("pass %d: wait: %v", pass, err)
		}
		if len(st.Errors) != 1 || !strings.Contains(st.Errors[0], "synthetic simulation failure") {
			t.Errorf("pass %d: errors %q, want the worker's one failure", pass, st.Errors)
		}
		if got := fake.points.Load(); got != int64(pass) {
			t.Errorf("pass %d: worker saw %d points, want %d", pass, got, pass)
		}
	}
	if got := coord.metrics.PointsCached.Load(); got != 0 {
		t.Errorf("coordinator answered %d point(s) from memory, want 0", got)
	}
}
