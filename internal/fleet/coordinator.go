// Package fleet shards simulation batches across a set of ooosimd
// workers behind the single-node batch API.
//
// The coordinator fronts N workers with exactly the HTTP surface one
// worker exposes (service.BatchAPI), so clients — the CLI, the sweep
// runner, the load generator — cannot tell a fleet from a node. Inside,
// each point routes to the worker owning its fingerprint's shard
// (sim.ShardFor over the currently-ready node list), which makes the
// fleet's caches partition cleanly: identical points always land on
// the same node, so no result is computed twice or stored on two
// workers. On top of that partition the coordinator keeps a memory tier
// of its own (a service.Cache with no disk tier; the workers keep
// durability): it answers every point it has already relayed at
// admission and routes only the misses, so an all-hit batch comes back
// done in the submit response and no worker is contacted. A worker
// answers an all-hit sub-batch in its submit response in the same way,
// so the coordinator opens a worker's event stream only for
// sub-batches with work left.
//
// Three mechanisms keep that guarantee under churn:
//
//   - Coordinator singleflight (the workers' keyed.Group): concurrent
//     batches sharing a fingerprint elect one leader submission per
//     point; followers adopt the leader's bytes and report cached, so
//     not even the routing layer sends a duplicate downstream.
//   - Health routing: every worker sits behind a circuit breaker
//     (closed → open after consecutive failures → half-open probation
//     after a cooldown). Dispatch failures and failed health probes
//     feed the breaker; successes close it. A routing pass excludes
//     nodes whose breaker is open plus nodes that already failed
//     during this batch's routing, and unfinished points re-bucket
//     over the survivors under a bounded per-point retry budget; the
//     simulation is deterministic, so a re-routed point's bytes match
//     what the dead node would have produced.
//   - Admission and drain are the worker's own (service.Front): a
//     bounded queue of misses rejects with service.ErrOverloaded (HTTP
//     429), and drain stops admission while in-flight batches run dry.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/keyed"
	"repro/internal/service"
	"repro/internal/sim"
)

// Options configures a Coordinator.
type Options struct {
	// Workers lists the worker base URLs (e.g. "http://127.0.0.1:8321").
	// At least one is required.
	Workers []string
	// MaxQueue bounds admitted-but-unfinished misses across all
	// batches: while misses are queued, a batch whose misses would pass
	// it is refused. Points the coordinator answers from its memory
	// queue nothing, so an all-hit batch always passes. An idle
	// coordinator admits any batch, so a figure larger than the bound
	// still runs as one batch. <= 0 admits everything.
	MaxQueue int
	// PingInterval spaces the health pinger's /readyz probes; <= 0 uses
	// one second.
	PingInterval time.Duration
	// PingTimeout bounds each probe round; <= 0 uses two seconds.
	PingTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// worker's circuit breaker; <= 0 uses 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses the worker
	// before half-open probation; <= 0 uses 5s.
	BreakerCooldown time.Duration
	// RetryBudget bounds how many node failures a single point may
	// survive before it completes with a routing error; <= 0 uses
	// BreakerThreshold + 3.
	RetryBudget int
	// NoNodesGrace is how long a routing pass waits for any worker to
	// become routable (a breaker half-opening, a ping recovering one)
	// before abandoning the points; <= 0 uses 10s.
	NoNodesGrace time.Duration
	// HTTPClient overrides the default worker transport (tests,
	// timeouts).
	HTTPClient *http.Client
	// Log, when non-nil, receives routing events: node mark-downs,
	// re-route passes, batch completion lines.
	Log func(format string, args ...any)
}

// node is one worker and its health state.
type node struct {
	url     string
	client  *service.Client
	breaker *faults.Breaker
	// probeOK tracks the last health-probe outcome, for transition logs.
	probeOK atomic.Bool
	// probeFails counts failed health probes (the per-node
	// node_probe_failures_total metric).
	probeFails atomic.Uint64
}

// Coordinator shards batches over a worker fleet. It implements
// service.BatchAPI; serve it with service.NewAPIHandler (or
// fleet.NewHandler for the full production surface). Its Front admits
// batches against a bound on queued misses, exactly as a worker's does.
type Coordinator struct {
	*service.Front
	// cache is the coordinator's memory tier: every point relayed
	// without error, so a repeat is answered without a worker.
	cache       *service.Cache
	nodes       []*node
	log         func(format string, args ...any)
	pingTimeout time.Duration
	retryBudget int
	grace       time.Duration

	metrics metrics

	// flight deduplicates in-flight points across batches by
	// fingerprint: one leader submission per point fleet-wide.
	flight keyed.Group[json.RawMessage]

	pingStop chan struct{}
	pingDone chan struct{}
}

// New builds a coordinator and starts its health pinger. Call Close to
// stop the pinger.
func New(opt Options) (*Coordinator, error) {
	if len(opt.Workers) == 0 {
		return nil, fmt.Errorf("fleet: no workers configured")
	}
	interval := opt.PingInterval
	if interval <= 0 {
		interval = time.Second
	}
	pingTimeout := opt.PingTimeout
	if pingTimeout <= 0 {
		pingTimeout = 2 * time.Second
	}
	threshold := opt.BreakerThreshold
	if threshold <= 0 {
		threshold = 3
	}
	cooldown := opt.BreakerCooldown
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	budget := opt.RetryBudget
	if budget <= 0 {
		budget = threshold + 3
	}
	grace := opt.NoNodesGrace
	if grace <= 0 {
		grace = 10 * time.Second
	}
	cache, _ := service.NewCache(0, "") // memory-only construction cannot fail
	c := &Coordinator{
		Front:       service.NewFront("f", opt.MaxQueue),
		cache:       cache,
		log:         opt.Log,
		pingTimeout: pingTimeout,
		retryBudget: budget,
		grace:       grace,
		pingStop:    make(chan struct{}),
		pingDone:    make(chan struct{}),
	}
	for _, u := range opt.Workers {
		n := &node{
			url:     u,
			client:  &service.Client{BaseURL: u, HTTPClient: opt.HTTPClient},
			breaker: &faults.Breaker{Threshold: threshold, Cooldown: cooldown},
		}
		// Optimistic start: a fresh breaker is closed, so nodes are
		// routable until a probe or a dispatch failure says otherwise and
		// the first batch never waits for a ping cycle.
		n.probeOK.Store(true)
		c.nodes = append(c.nodes, n)
	}
	go c.pingLoop(interval)
	return c, nil
}

// Close stops the health pinger. In-flight batches keep running.
func (c *Coordinator) Close() {
	select {
	case <-c.pingStop:
	default:
		close(c.pingStop)
	}
	<-c.pingDone
}

// pingLoop probes every worker's readiness on a fixed cadence. Probe
// outcomes feed each node's circuit breaker in both directions: a
// recovered (restarted or drained-and-returned) worker closes its
// breaker and rejoins the routing set without operator action.
func (c *Coordinator) pingLoop(interval time.Duration) {
	defer close(c.pingDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.pingStop:
			return
		case <-ticker.C:
			c.pingOnce()
		}
	}
}

// pingOnce probes every node once (also a test seam). Probes ignore the
// breaker state on purpose: an open node keeps being probed so the
// breaker closes the moment the worker answers again.
func (c *Coordinator) pingOnce() {
	ctx, cancel := context.WithTimeout(context.Background(), c.pingTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			ready := n.client.Ready(ctx) == nil
			if ready {
				n.breaker.Success()
			} else {
				n.probeFails.Add(1)
				c.metrics.ProbeFailures.Add(1)
				if n.breaker.Failure() {
					c.metrics.BreakerTrips.Add(1)
				}
			}
			if n.probeOK.Swap(ready) != ready && c.log != nil {
				state := "down"
				if ready {
					state = "up"
				}
				c.log("fleet: node %s probe: %s (breaker %s)", n.url, state, n.breaker.State())
			}
		}(n)
	}
	wg.Wait()
}

// readyNodes returns the nodes currently accepting work: breaker closed,
// or open long enough that probation (half-open) allows one try.
func (c *Coordinator) readyNodes() []*node {
	var out []*node
	for _, n := range c.nodes {
		if n.breaker.Allow() {
			out = append(out, n)
		}
	}
	return out
}

// Ready reports why the coordinator should not receive new work:
// draining, queue at the bound, or no live workers.
func (c *Coordinator) Ready() error {
	if err := c.Front.Ready(); err != nil {
		return err
	}
	if len(c.readyNodes()) == 0 {
		return errors.New("fleet: no workers ready")
	}
	return nil
}

// Submit validates and fingerprints the batch, answers the points its
// memory holds, admits the rest against the queue bound, and
// dispatches them across the fleet asynchronously. An all-hit batch
// comes back done, so its submit response carries every result.
func (c *Coordinator) Submit(jobs []service.Job) (*service.Batch, error) {
	fps, err := c.Prepare(jobs)
	if err != nil {
		return nil, err
	}
	b, misses, err := c.AdmitHits(c.cache, jobs, fps)
	if err != nil {
		return nil, err
	}
	c.metrics.PointsCached.Add(uint64(len(jobs) - len(misses)))
	if len(misses) == 0 {
		b.LogDone(c.log)
		return b, nil
	}
	go c.dispatch(b, misses)
	return b, nil
}

// pointResult is one point's outcome arriving at the dispatch loop.
type pointResult struct {
	i      int
	raw    json.RawMessage
	cached bool
	err    error
}

// dispatch routes a batch's misses across the fleet until every one
// completes, re-routing around node failures, and fills the memory
// tier with each result that arrives without error. It is the only
// completer of the misses, so the exactly-once Complete contract holds
// by construction: results from every source (worker streams, flight
// followers, terminal errors) funnel through one loop that drops
// duplicates.
func (c *Coordinator) dispatch(b *service.Batch, misses []int) {
	fps := b.Fingerprints()
	results := make(chan pointResult, len(misses))

	// Split points into flight leaders (we submit them) and followers
	// (an earlier batch is already computing the same fingerprint; adopt
	// its bytes when it lands). Duplicate fingerprints within this batch
	// follow their first occurrence the same way.
	var lead []int
	leaders := map[string]bool{}
	for _, i := range misses {
		fp := fps[i]
		call, leader := c.flight.Join(fp)
		if leader {
			leaders[fp] = true
			lead = append(lead, i)
			continue
		}
		c.metrics.PointsDeduped.Add(1)
		go func() {
			raw, err := call.Wait()
			// A shared result is cached by definition: this submission
			// ran nothing for it.
			results <- pointResult{i: i, raw: raw, cached: err == nil, err: err}
		}()
	}

	go c.route(b, lead, results)

	done := make([]bool, len(fps))
	for left := len(misses); left > 0; {
		r := <-results
		if done[r.i] {
			continue
		}
		done[r.i] = true
		left--
		fp := fps[r.i]
		// Fill before the flight resolves, so a batch admitted after the
		// resolution finds the point here. Errors are never kept: the
		// workers do not cache them either.
		if r.err == nil {
			c.cache.Put(fp, r.raw)
		} else {
			c.metrics.PointErrors.Add(1)
		}
		if leaders[fp] {
			c.flight.Resolve(fp, r.raw, r.err)
			delete(leaders, fp) // resolve once per fingerprint
		}
		b.Complete(r.i, r.raw, r.cached, r.err)
		c.Finished(1)
	}
	b.LogDone(c.log)
}

// gracePoll spaces the no-ready-nodes waits inside route.
const gracePoll = 50 * time.Millisecond

// route drives the leader points to completion: shard over the routable
// nodes, run the per-node sub-batches, re-bucket whatever a failed node
// left unfinished. Each pass excludes nodes that already failed during
// this batch's routing; when no node is routable the loop waits up to
// the grace window for a breaker to half-open or a ping to recover one,
// and each point carries a retry budget so the loop terminates even
// under sustained churn. Budget-exhausted or stranded points complete
// with a routing error rather than hanging the batch.
func (c *Coordinator) route(b *service.Batch, lead []int, results chan<- pointResult) {
	jobs, fps := b.Jobs(), b.Fingerprints()
	pending := lead
	attempts := make(map[int]int)
	failed := map[*node]bool{}
	routedOnce := false
	var waited time.Duration
	for len(pending) > 0 {
		var usable []*node
		for _, n := range c.readyNodes() {
			if !failed[n] {
				usable = append(usable, n)
			}
		}
		if len(usable) == 0 {
			if waited >= c.grace {
				break
			}
			// Wait for a breaker to half-open or a probe to recover a
			// node; retrying previously-failed nodes is the point of the
			// wait, so forget this batch's failure set.
			time.Sleep(gracePoll)
			waited += gracePoll
			failed = map[*node]bool{}
			continue
		}
		waited = 0
		if routedOnce {
			c.metrics.Reroutes.Add(uint64(len(pending)))
			if c.log != nil {
				c.log("fleet: re-routing %d point(s) over %d node(s)", len(pending), len(usable))
			}
		}
		routedOnce = true
		// Shard by fingerprint over the usable nodes: identical points
		// land on identical nodes, so per-node caches stay partitioned.
		buckets := make([][]int, len(usable))
		for _, i := range pending {
			s := sim.ShardFor(fps[i], len(usable))
			buckets[s] = append(buckets[s], i)
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		var unfinished []int
		for s, idxs := range buckets {
			if len(idxs) == 0 {
				continue
			}
			wg.Add(1)
			go func(n *node, idxs []int) {
				defer wg.Done()
				left := c.runOn(n, jobs, idxs, results)
				if len(left) > 0 {
					mu.Lock()
					unfinished = append(unfinished, left...)
					failed[n] = true
					mu.Unlock()
				}
			}(usable[s], idxs)
		}
		wg.Wait()
		pending = pending[:0]
		for _, i := range unfinished {
			attempts[i]++
			if attempts[i] >= c.retryBudget {
				c.metrics.RetryExhausted.Add(1)
				results <- pointResult{i: i, err: fmt.Errorf(
					"fleet: point exceeded its retry budget (%d node failures)", attempts[i])}
				continue
			}
			pending = append(pending, i)
		}
	}
	for _, i := range pending {
		results <- pointResult{i: i, err: errors.New("fleet: no workers available to run this point")}
	}
}

// runOn submits idxs' jobs to one worker and feeds their completions
// into results, opening the worker's event stream only when the
// sub-batch has work left (see service.Client.Events). On worker
// failure it marks the node down and returns the points that did not
// complete, for the caller to re-route. Per-point simulation errors are
// final (the simulator is deterministic; another node would fail
// identically) and do not count as unfinished.
func (c *Coordinator) runOn(n *node, jobs []service.Job, idxs []int, results chan<- pointResult) (unfinished []int) {
	sub := make([]service.Job, len(idxs))
	for k, i := range idxs {
		sub[k] = jobs[i]
	}
	got := make([]bool, len(idxs))
	defer func() {
		for k, ok := range got {
			if !ok {
				unfinished = append(unfinished, idxs[k])
			}
		}
	}()

	// A batch is open-ended work; the only timeout that makes sense is
	// per-connection (the client's transport), not end-to-end.
	ctx := context.Background()
	st, err := n.client.Submit(ctx, sub)
	if err != nil {
		c.markDown(n, err)
		return
	}
	if !st.FinishedAtAdmission(sub) {
		// Counted before the stream opens, so before any of its results.
		c.metrics.WorkerStreams.Add(1)
	}
	err = n.client.Events(ctx, sub, st, func(ev service.Event) error {
		switch ev.Type {
		case "result":
			if ev.Index >= 0 && ev.Index < len(idxs) {
				got[ev.Index] = true
				results <- pointResult{i: idxs[ev.Index], raw: ev.Results, cached: ev.Cached}
			}
		case "error":
			if ev.Index >= 0 && ev.Index < len(idxs) {
				got[ev.Index] = true
				results <- pointResult{i: idxs[ev.Index], err: errors.New(ev.Error)}
			}
		}
		return nil
	})
	if err != nil {
		c.markDown(n, err)
		return
	}
	// A cleanly-finished sub-batch closes the node's breaker.
	n.breaker.Success()
	return
}

// markDown records a dispatch-time worker failure in the node's circuit
// breaker. Enough consecutive failures open the breaker; a successful
// dispatch or health probe closes it again.
func (c *Coordinator) markDown(n *node, err error) {
	c.metrics.NodeFailures.Add(1)
	opened := n.breaker.Failure()
	if opened {
		c.metrics.BreakerTrips.Add(1)
	}
	if c.log != nil {
		if opened {
			c.log("fleet: node %s breaker opened: %v", n.url, err)
		} else {
			c.log("fleet: node %s dispatch failure (breaker %s): %v", n.url, n.breaker.State(), err)
		}
	}
}
