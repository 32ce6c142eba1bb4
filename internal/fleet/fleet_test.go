package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	"repro/internal/stats"
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

// streamLog counts a worker's event-stream requests.
type streamLog struct {
	h       http.Handler
	streams atomic.Int64
}

func (l *streamLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/events") {
		l.streams.Add(1)
	}
	l.h.ServeHTTP(w, r)
}

// TestFleetWarmResubmitOpensNoWorkerStream: resubmitting a batch
// through the coordinator is answered by the workers' submit responses
// alone, with bytes identical to the first pass and every breaker
// closed; a sub-batch holding one miss still streams, from its owner
// only.
func TestFleetWarmResubmitOpensNoWorkerStream(t *testing.T) {
	jobs := policyBatch(1500)
	var logs []*streamLog
	var urls []string
	for range 2 {
		l := &streamLog{h: service.NewHandler(service.NewScheduler(service.SchedulerOptions{Workers: 1}))}
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
	front := httptest.NewServer(NewHandler(coord))
	defer front.Close()
	client := &service.Client{BaseURL: front.URL}
	run := func(jobs []service.Job) []json.RawMessage {
		t.Helper()
		got := make([]json.RawMessage, len(jobs))
		_, err := client.Run(context.Background(), jobs, func(ev service.Event, _ *stats.Results) {
			if ev.Type == "result" {
				got[ev.Index] = ev.Results
			}
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return got
	}
	streams := func() (per []int64, coordTotal uint64) {
		for _, l := range logs {
			per = append(per, l.streams.Load())
		}
		return per, coord.metrics.WorkerStreams.Load()
	}

	cold := run(jobs)
	coldPer, coldTotal := streams()
	if coldPer[0] == 0 || coldPer[1] == 0 || coldTotal != uint64(coldPer[0]+coldPer[1]) {
		t.Fatalf("cold pass: worker streams %v, coordinator counted %d", coldPer, coldTotal)
	}

	warm := run(jobs)
	if per, total := streams(); !slices.Equal(per, coldPer) || total != coldTotal {
		t.Errorf("warm pass opened worker streams: %v -> %v (counter %d -> %d)", coldPer, per, coldTotal, total)
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
	mixed := run(append(slices.Clone(jobs), miss))
	per, total := streams()
	for w := range per {
		want := coldPer[w]
		if w == owner {
			want++
		}
		if per[w] != want {
			t.Errorf("worker %d: %d streams after the one-miss pass, want %d (owner %d)", w, per[w], want, owner)
		}
	}
	if total != coldTotal+1 {
		t.Errorf("coordinator counted %d worker streams, want %d", total, coldTotal+1)
	}
	for i := range jobs {
		if !bytes.Equal(mixed[i], cold[i]) {
			t.Errorf("point %d (%s): bytes differ in the one-miss pass", i, jobs[i].Name)
		}
	}
	var m strings.Builder
	coord.WriteMetrics(&m)
	if want := fmt.Sprintf("ooosim_fleet_worker_streams_total %d\n", total); !strings.Contains(m.String(), want) {
		t.Errorf("metrics lack %q", want)
	}
}
