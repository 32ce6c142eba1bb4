package fleet

import (
	"fmt"
	"io"
	"sync/atomic"
)

// metrics is the coordinator's counter set, exposed in Prometheus text
// format at /metrics (names prefixed ooosim_fleet_ to keep worker and
// coordinator scrapes distinguishable on one dashboard).
type metrics struct {
	BatchesSubmitted atomic.Uint64
	BatchesRejected  atomic.Uint64
	Points           atomic.Uint64
	PointsDeduped    atomic.Uint64 // cross-batch singleflight shares
	PointErrors      atomic.Uint64
	Reroutes         atomic.Uint64 // points re-bucketed after a node failure
	NodeFailures     atomic.Uint64 // dispatch-time worker failures
	BreakerTrips     atomic.Uint64 // closed→open breaker transitions
	ProbeFailures    atomic.Uint64 // failed health probes, all nodes
	RetryExhausted   atomic.Uint64 // points that ran out of retry budget
	WorkerStreams    atomic.Uint64 // worker event streams opened
	QueueDepth       atomic.Int64
}

func counter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func gauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

// WriteMetrics renders the coordinator's metric surface, including one
// liveness gauge per worker.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	m := &c.metrics
	counter(w, "ooosim_fleet_batches_submitted_total", "Batches accepted by the coordinator.", m.BatchesSubmitted.Load())
	counter(w, "ooosim_fleet_batches_rejected_total", "Batches refused while draining or over the queue bound.", m.BatchesRejected.Load())
	counter(w, "ooosim_fleet_points_total", "Points admitted across all batches.", m.Points.Load())
	counter(w, "ooosim_fleet_points_deduped_total", "Points that adopted another in-flight submission's result.", m.PointsDeduped.Load())
	counter(w, "ooosim_fleet_point_errors_total", "Points that failed (simulation error or no workers left).", m.PointErrors.Load())
	counter(w, "ooosim_fleet_reroutes_total", "Points re-bucketed to a surviving node after a worker failure.", m.Reroutes.Load())
	counter(w, "ooosim_fleet_node_failures_total", "Worker dispatch failures (failed submission or severed stream).", m.NodeFailures.Load())
	counter(w, "ooosim_fleet_breaker_trips_total", "Worker circuit breakers tripped open.", m.BreakerTrips.Load())
	counter(w, "ooosim_fleet_retry_budget_exhausted_total", "Points that failed after exhausting their re-route budget.", m.RetryExhausted.Load())
	counter(w, "ooosim_fleet_worker_streams_total", "Worker event streams opened (sub-batches a worker did not finish at admission).", m.WorkerStreams.Load())
	gauge(w, "ooosim_fleet_queue_depth", "Points admitted but not yet finished.", m.QueueDepth.Load())
	gauge(w, "ooosim_fleet_nodes", "Workers configured.", int64(len(c.nodes)))
	ready := c.readyNodes()
	gauge(w, "ooosim_fleet_nodes_ready", "Workers currently accepting work.", int64(len(ready)))
	fmt.Fprintf(w, "# HELP ooosim_fleet_node_up Per-worker routability (1 breaker closed or half-open, 0 open).\n# TYPE ooosim_fleet_node_up gauge\n")
	for _, n := range c.nodes {
		v := 0
		if n.breaker.Allow() {
			v = 1
		}
		fmt.Fprintf(w, "ooosim_fleet_node_up{node=%q} %d\n", n.url, v)
	}
	fmt.Fprintf(w, "# HELP ooosim_fleet_node_probe_failures_total Failed health probes per worker.\n# TYPE ooosim_fleet_node_probe_failures_total counter\n")
	for _, n := range c.nodes {
		fmt.Fprintf(w, "ooosim_fleet_node_probe_failures_total{node=%q} %d\n", n.url, n.probeFails.Load())
	}
	drain := int64(0)
	if c.draining.Load() {
		drain = 1
	}
	gauge(w, "ooosim_fleet_draining", "1 while the coordinator is draining.", drain)
	readyV := int64(0)
	if c.Ready() == nil {
		readyV = 1
	}
	gauge(w, "ooosim_fleet_ready", "1 while the coordinator admits new batches.", readyV)
}
