package fleet

import (
	"bytes"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// metricShape reduces a Prometheus text exposition to its shape: every
// "# TYPE" line, plus every sample's series name with its label keys
// kept and its label values dropped, sorted and deduplicated. Values
// and HELP texts are left out, so the shape changes only when a series
// is added, dropped, renamed, retyped or relabelled.
func metricShape(text string) []string {
	labelValue := regexp.MustCompile(`="[^"]*"`)
	var shape []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			shape = append(shape, line)
		case strings.HasPrefix(line, "#"):
		default:
			name := line[:strings.LastIndexByte(line, ' ')]
			shape = append(shape, labelValue.ReplaceAllString(name, ""))
		}
	}
	slices.Sort(shape)
	return slices.Compact(shape)
}

// shapeLines joins expected shapes, one entry per line, and sorts them.
func shapeLines(s ...string) []string {
	lines := strings.FieldsFunc(strings.Join(s, "\n"), func(r rune) bool { return r == '\n' })
	slices.Sort(lines)
	return lines
}

// TestMetricsSurfacePinned pins the /metrics shape of the three
// surfaces: a worker without a donor exchange, a worker with one, and a
// coordinator. Dashboards and the benchmark scrape these series, so a
// writer change must not drop, rename, retype or relabel one.
func TestMetricsSurfacePinned(t *testing.T) {
	worker := service.NewScheduler(service.SchedulerOptions{Workers: 1})
	exchange := service.NewScheduler(service.SchedulerOptions{Workers: 1, Donors: service.NewDonorExchange("", nil)})
	srv := httptest.NewServer(service.NewHandler(worker))
	defer srv.Close()
	coord, err := New(Options{Workers: []string{srv.URL}, PingInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	for _, c := range []struct {
		name  string
		write func(*bytes.Buffer)
		want  []string
	}{
		{"worker", func(b *bytes.Buffer) { worker.WriteMetrics(b) }, shapeLines(workerShape)},
		{"worker with exchange", func(b *bytes.Buffer) { exchange.WriteMetrics(b) }, shapeLines(workerShape, exchangeShape)},
		{"coordinator", func(b *bytes.Buffer) { coord.WriteMetrics(b) }, shapeLines(coordinatorShape)},
	} {
		var buf bytes.Buffer
		c.write(&buf)
		if got := metricShape(buf.String()); !slices.Equal(got, c.want) {
			t.Errorf("%s /metrics shape:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// workerShape is every worker's surface.
const workerShape = `
# TYPE ooosim_batches_rejected_total counter
# TYPE ooosim_batches_submitted_total counter
# TYPE ooosim_cache_mem_entries gauge
# TYPE ooosim_cache_quarantined_total counter
# TYPE ooosim_cycles_simulated_total counter
# TYPE ooosim_cycles_skipped_total counter
# TYPE ooosim_draining gauge
# TYPE ooosim_inflight_simulations gauge
# TYPE ooosim_journal_recovered_batches_total counter
# TYPE ooosim_point_errors_total counter
# TYPE ooosim_points_cached_total counter
# TYPE ooosim_points_total counter
# TYPE ooosim_queue_depth gauge
# TYPE ooosim_ready gauge
# TYPE ooosim_simulations_total counter
# TYPE ooosim_warm_builds_total counter
# TYPE ooosim_warm_reuses_total counter
# TYPE ooosim_worker_slots gauge
ooosim_batches_rejected_total
ooosim_batches_submitted_total
ooosim_cache_mem_entries
ooosim_cache_quarantined_total
ooosim_cycles_simulated_total
ooosim_cycles_skipped_total
ooosim_draining
ooosim_inflight_simulations
ooosim_journal_recovered_batches_total
ooosim_point_errors_total
ooosim_points_cached_total
ooosim_points_total
ooosim_queue_depth
ooosim_ready
ooosim_simulations_total
ooosim_warm_builds_total
ooosim_warm_reuses_total
ooosim_worker_slots
`

// exchangeShape is what a configured donor exchange adds to a worker.
const exchangeShape = `
# TYPE ooosim_donor_fetch_failures_total counter
# TYPE ooosim_donor_fetch_retries_total counter
# TYPE ooosim_donors_adopted_total counter
# TYPE ooosim_donors_shipped_total counter
ooosim_donor_fetch_failures_total
ooosim_donor_fetch_retries_total
ooosim_donors_adopted_total
ooosim_donors_shipped_total
`

// coordinatorShape is a one-worker coordinator's surface.
const coordinatorShape = `
# TYPE ooosim_fleet_batches_rejected_total counter
# TYPE ooosim_fleet_batches_submitted_total counter
# TYPE ooosim_fleet_breaker_trips_total counter
# TYPE ooosim_fleet_draining gauge
# TYPE ooosim_fleet_node_failures_total counter
# TYPE ooosim_fleet_node_probe_failures_total counter
# TYPE ooosim_fleet_node_up gauge
# TYPE ooosim_fleet_nodes gauge
# TYPE ooosim_fleet_nodes_ready gauge
# TYPE ooosim_fleet_point_errors_total counter
# TYPE ooosim_fleet_points_cached_total counter
# TYPE ooosim_fleet_points_deduped_total counter
# TYPE ooosim_fleet_points_total counter
# TYPE ooosim_fleet_queue_depth gauge
# TYPE ooosim_fleet_ready gauge
# TYPE ooosim_fleet_reroutes_total counter
# TYPE ooosim_fleet_retry_budget_exhausted_total counter
# TYPE ooosim_fleet_worker_streams_total counter
ooosim_fleet_batches_rejected_total
ooosim_fleet_batches_submitted_total
ooosim_fleet_breaker_trips_total
ooosim_fleet_draining
ooosim_fleet_node_failures_total
ooosim_fleet_node_probe_failures_total{node}
ooosim_fleet_node_up{node}
ooosim_fleet_nodes
ooosim_fleet_nodes_ready
ooosim_fleet_point_errors_total
ooosim_fleet_points_cached_total
ooosim_fleet_points_deduped_total
ooosim_fleet_points_total
ooosim_fleet_queue_depth
ooosim_fleet_ready
ooosim_fleet_reroutes_total
ooosim_fleet_retry_budget_exhausted_total
ooosim_fleet_worker_streams_total
`
