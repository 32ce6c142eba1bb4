package fleet

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/service"
)

// metrics is the coordinator's counter set beyond its Front's admission
// counters, exposed in Prometheus text format at /metrics (names
// prefixed ooosim_fleet_ to keep worker and coordinator scrapes
// distinguishable on one dashboard).
type metrics struct {
	PointsDeduped  atomic.Uint64 // cross-batch singleflight shares
	PointErrors    atomic.Uint64
	Reroutes       atomic.Uint64 // points re-bucketed after a node failure
	NodeFailures   atomic.Uint64 // dispatch-time worker failures
	BreakerTrips   atomic.Uint64 // closed→open breaker transitions
	ProbeFailures  atomic.Uint64 // failed health probes, all nodes
	RetryExhausted atomic.Uint64 // points that ran out of retry budget
	WorkerStreams  atomic.Uint64 // worker event streams opened
	PointsCached   atomic.Uint64 // points answered from the coordinator's memory
}

// WriteMetrics renders the coordinator's metric surface, including one
// liveness gauge per worker.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	m := &c.metrics
	submitted, rejected, points, queued := c.Counts()
	service.Counter(w, "ooosim_fleet_batches_submitted_total", "Batches accepted by the coordinator.", submitted)
	service.Counter(w, "ooosim_fleet_batches_rejected_total", "Batches refused while draining or over the queue bound.", rejected)
	service.Counter(w, "ooosim_fleet_points_total", "Points admitted across all batches.", points)
	service.Counter(w, "ooosim_fleet_points_deduped_total", "Points that adopted another in-flight submission's result.", m.PointsDeduped.Load())
	service.Counter(w, "ooosim_fleet_point_errors_total", "Points that failed (simulation error or no workers left).", m.PointErrors.Load())
	service.Counter(w, "ooosim_fleet_reroutes_total", "Points re-bucketed to a surviving node after a worker failure.", m.Reroutes.Load())
	service.Counter(w, "ooosim_fleet_node_failures_total", "Worker dispatch failures (failed submission or severed stream).", m.NodeFailures.Load())
	service.Counter(w, "ooosim_fleet_breaker_trips_total", "Worker circuit breakers tripped open.", m.BreakerTrips.Load())
	service.Counter(w, "ooosim_fleet_retry_budget_exhausted_total", "Points that failed after exhausting their re-route budget.", m.RetryExhausted.Load())
	service.Counter(w, "ooosim_fleet_worker_streams_total", "Worker event streams opened (sub-batches a worker did not finish at admission).", m.WorkerStreams.Load())
	service.Counter(w, "ooosim_fleet_points_cached_total", "Points answered from the coordinator's memory, with no worker contacted.", m.PointsCached.Load())
	service.Gauge(w, "ooosim_fleet_queue_depth", "Points admitted but not yet finished.", queued)
	service.Gauge(w, "ooosim_fleet_nodes", "Workers configured.", int64(len(c.nodes)))
	service.Gauge(w, "ooosim_fleet_nodes_ready", "Workers currently accepting work.", int64(len(c.readyNodes())))
	service.MetricHeader(w, "gauge", "ooosim_fleet_node_up", "Per-worker routability (1 breaker closed or half-open, 0 open).")
	for _, n := range c.nodes {
		v := 0
		if n.breaker.Allow() {
			v = 1
		}
		fmt.Fprintf(w, "ooosim_fleet_node_up{node=%q} %d\n", n.url, v)
	}
	service.MetricHeader(w, "counter", "ooosim_fleet_node_probe_failures_total", "Failed health probes per worker.")
	for _, n := range c.nodes {
		fmt.Fprintf(w, "ooosim_fleet_node_probe_failures_total{node=%q} %d\n", n.url, n.probeFails.Load())
	}
	service.BoolGauge(w, "ooosim_fleet_draining", "1 while the coordinator is draining.", c.Draining())
	service.BoolGauge(w, "ooosim_fleet_ready", "1 while the coordinator admits new batches.", c.Ready() == nil)
}
