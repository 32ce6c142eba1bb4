package service

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Metrics is the worker daemon's counter set beyond its Front's
// admission counters, exposed in Prometheus text format at /metrics.
// Everything here is either a monotonic counter (suffix _total) or an
// instantaneous gauge; all updates are atomic, so scrapes never block
// the simulation path.
type Metrics struct {
	// CachedPoints counts points answered without simulation by this
	// node (submission hit, in-flight re-check hit, or singleflight
	// share); Simulations actual simulator runs; PointErrors failed
	// points.
	CachedPoints atomic.Uint64
	Simulations  atomic.Uint64
	PointErrors  atomic.Uint64
	// InFlight gauges runs currently holding a worker slot.
	InFlight atomic.Int64
	// WarmReuses counts forks of an already-available snapshot-group
	// donor, full-detail and sampled points alike (the donor exchange
	// counts the builds).
	WarmReuses atomic.Uint64
	// Cycles / SkippedCycles total the simulated-cycle and elided-cycle
	// counts over this node's simulator runs (PR 6's event-driven clock
	// skip); their ratio is the node's skip rate.
	Cycles        atomic.Uint64
	SkippedCycles atomic.Uint64
	// RecoveredBatches counts batches re-admitted from the recovery
	// journal after a restart.
	RecoveredBatches atomic.Uint64
}

// MetricHeader writes a series' HELP and TYPE lines in Prometheus text
// format, ahead of a labelled family's samples; Counter, Gauge and
// BoolGauge (1 for true) add one unlabelled sample. Workers and fleet
// coordinators both render /metrics with these.
func MetricHeader(w io.Writer, typ, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func Counter(w io.Writer, name, help string, v uint64) {
	MetricHeader(w, "counter", name, help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

func Gauge(w io.Writer, name, help string, v int64) {
	MetricHeader(w, "gauge", name, help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

func BoolGauge(w io.Writer, name, help string, b bool) {
	v := int64(0)
	if b {
		v = 1
	}
	Gauge(w, name, help, v)
}

// WriteMetrics renders the scheduler's full metric surface (admission
// and scheduler counters, cache occupancy, donor-exchange counters,
// drain/readiness state) in Prometheus text exposition format.
func (s *Scheduler) WriteMetrics(w io.Writer) {
	m := &s.metrics
	submitted, rejected, points, queued := s.Counts()
	Counter(w, "ooosim_batches_submitted_total", "Batches accepted by admission control.", submitted)
	Counter(w, "ooosim_batches_rejected_total", "Batches refused while draining or over the queue bound.", rejected)
	Counter(w, "ooosim_points_total", "Simulation points submitted.", points)
	Counter(w, "ooosim_points_cached_total", "Points answered without simulation (cache hit or singleflight share).", m.CachedPoints.Load())
	Counter(w, "ooosim_simulations_total", "Simulator runs actually executed.", m.Simulations.Load())
	Counter(w, "ooosim_point_errors_total", "Points that failed.", m.PointErrors.Load())
	Gauge(w, "ooosim_queue_depth", "Misses admitted but not yet finished.", queued)
	Gauge(w, "ooosim_inflight_simulations", "Runs currently holding a worker slot.", m.InFlight.Load())
	Gauge(w, "ooosim_worker_slots", "Size of the simulation worker pool.", int64(cap(s.sem)))
	// Adopted donors are not builds: the exchange counts local warm-ups
	// only, configured or not.
	Counter(w, "ooosim_warm_builds_total", "Snapshot-group warm donors built on this node.", s.donors.built.Load())
	Counter(w, "ooosim_warm_reuses_total", "Forks of an already-available donor.", m.WarmReuses.Load())
	Counter(w, "ooosim_cycles_simulated_total", "Cycles accounted across simulator runs.", m.Cycles.Load())
	Counter(w, "ooosim_cycles_skipped_total", "Cycles elided by the event-driven clock skip.", m.SkippedCycles.Load())
	Gauge(w, "ooosim_cache_mem_entries", "Results resident in the cache's memory tier.", int64(s.cache.MemLen()))
	Counter(w, "ooosim_cache_quarantined_total", "Disk cache entries that failed checksum verification and were quarantined.", s.cache.Quarantined())
	Counter(w, "ooosim_journal_recovered_batches_total", "Batches re-admitted from the recovery journal after a restart.", m.RecoveredBatches.Load())
	if s.exchange != nil {
		s.exchange.writeMetrics(w)
	}
	BoolGauge(w, "ooosim_draining", "1 while the node is draining (no new batches admitted).", s.Draining())
	BoolGauge(w, "ooosim_ready", "1 while the node admits new batches.", s.Ready() == nil)
}
