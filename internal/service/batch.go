package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
)

// Batch states.
const (
	// StateRunning: points are still executing (or queued).
	StateRunning = "running"
	// StateDone: every point completed (check Errors for failures).
	StateDone = "done"
)

// Event is one entry in a batch's progress stream. The stream carries
// one "result" or "error" event per point (in completion order) and a
// final "done" event; subscribers joining late replay the full history,
// so the stream is complete from any starting moment.
type Event struct {
	// Type is "result", "error" or "done".
	Type string `json:"type"`
	// Index is the point's position in the submitted batch (-1 on the
	// final "done" event).
	Index int `json:"index"`
	// Name labels the point (Job.Name or the recipe kernel).
	Name string `json:"name,omitempty"`
	// Cached is true when this submission performed no simulation for
	// the point: a cache hit (at submission or in flight) or a
	// deduplication against a concurrent identical run.
	Cached bool `json:"cached,omitempty"`
	// Done and Total report batch completion: Done points (including
	// this one) out of Total.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Error carries the point's failure ("error" events only).
	Error string `json:"error,omitempty"`
	// Results is the point's marshalled stats.Results ("result" events
	// only), verbatim from the simulator or the cache.
	Results json.RawMessage `json:"results,omitempty"`
}

// BatchStatus is the poll-endpoint snapshot of a batch.
type BatchStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Total int    `json:"total"`
	Done  int    `json:"done"`
	// CacheHits counts points that needed no simulation from this
	// submission (cache hits plus deduplicated concurrent runs).
	CacheHits int `json:"cache_hits"`
	// SnapshotGroups counts the batch's distinct snapshot groups
	// (sim.WarmGroup: trace recipe, warm-relevant cache shape and warm
	// length): each group warms one donor hierarchy that every member
	// point, full-detail or sampled, forks (see the scheduler's
	// snapshot-fork sharing).
	SnapshotGroups int `json:"snapshot_groups"`
	// WarmBuilds and WarmReuses count this batch's simulated points
	// that warmed (or adopted) a fresh donor vs forked an already-warmed
	// one (cache-hit points touch no donor and appear in neither).
	WarmBuilds int `json:"warm_builds"`
	WarmReuses int `json:"warm_reuses"`
	// Errors lists failed points; empty means every completed point
	// succeeded.
	Errors []string `json:"errors,omitempty"`
	// Results holds the marshalled stats.Results per point, in
	// submission order; entries are null until the point completes (or
	// if it failed).
	Results []json.RawMessage `json:"results,omitempty"`
}

// Batch tracks one submitted job list through execution.
type Batch struct {
	id   string
	jobs []Job
	fps  []string

	mu         sync.Mutex
	state      string
	done       int
	hits       int
	groups     int
	warmBuilds int
	warmReuses int
	logged     bool
	journal    *Journal // set by MarkJournaled until the last Complete
	errs       []string
	results    []json.RawMessage
	events     []Event
	changed    chan struct{} // closed-and-replaced on every event
}

// NewBatch builds a batch tracker for the given jobs and their
// fingerprints. The scheduler uses it for local batches; a fleet
// coordinator uses the same tracker so its HTTP surface (status,
// events, done line) is indistinguishable from a single node's.
func NewBatch(id string, jobs []Job, fps []string) *Batch {
	return &Batch{
		id:      id,
		jobs:    jobs,
		fps:     fps,
		groups:  countSnapshotGroups(jobs),
		state:   StateRunning,
		results: make([]json.RawMessage, len(jobs)),
		changed: make(chan struct{}),
	}
}

// ID returns the batch identifier.
func (b *Batch) ID() string { return b.id }

// Jobs returns the batch's job list (shared; do not mutate).
func (b *Batch) Jobs() []Job { return b.jobs }

// Fingerprints returns the per-job content addresses (shared; do not
// mutate).
func (b *Batch) Fingerprints() []string { return b.fps }

// Complete records one finished point and publishes its event (plus the
// final "done" event when it is the last). Exactly one Complete per
// point: callers completing from multiple sources (a fleet coordinator
// re-routing work off a dead node) must deduplicate before calling.
func (b *Batch) Complete(i int, raw json.RawMessage, cached bool, err error) {
	b.mu.Lock()
	defer func() {
		close(b.changed)
		b.changed = make(chan struct{})
		b.mu.Unlock()
	}()
	b.done++
	ev := Event{
		Index: i,
		Name:  b.jobs[i].label(),
		Done:  b.done,
		Total: len(b.jobs),
	}
	if err != nil {
		ev.Type = "error"
		ev.Error = err.Error()
		b.errs = append(b.errs, b.jobs[i].label()+": "+err.Error())
	} else {
		ev.Type = "result"
		ev.Cached = cached
		ev.Results = raw
		b.results[i] = raw
		if cached {
			b.hits++
		}
	}
	b.events = append(b.events, ev)
	if b.done == len(b.jobs) {
		if b.journal != nil {
			// Under the lock, before the state flips and waiters wake:
			// a journal replayed after Wait never finds the batch
			// pending. A failed append only re-admits the batch at the
			// next recovery, where every point is a cache hit.
			_ = b.journal.AppendBatchDone(b.id)
			b.journal = nil
		}
		b.state = StateDone
		b.events = append(b.events, Event{Type: "done", Index: -1, Done: b.done, Total: len(b.jobs)})
	}
}

// State returns the batch's state (StateRunning or StateDone) without
// copying its results.
func (b *Batch) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Status returns a snapshot of the batch.
func (b *Batch) Status() BatchStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BatchStatus{
		ID:             b.id,
		State:          b.state,
		Total:          len(b.jobs),
		Done:           b.done,
		CacheHits:      b.hits,
		SnapshotGroups: b.groups,
		WarmBuilds:     b.warmBuilds,
		WarmReuses:     b.warmReuses,
		Errors:         append([]string(nil), b.errs...),
		Results:        append([]json.RawMessage(nil), b.results...),
	}
	return st
}

// warmShared records the donor one simulated point forked: reused
// reports that it was already warm.
func (b *Batch) warmShared(reused bool) {
	b.mu.Lock()
	if reused {
		b.warmReuses++
	} else {
		b.warmBuilds++
	}
	b.mu.Unlock()
}

// MarkJournaled records that a "batch" journal record was written to j
// for this batch. The last Complete appends the matching "batchdone"
// record before any waiter can see the batch done.
func (b *Batch) MarkJournaled(j *Journal) {
	b.mu.Lock()
	b.journal = j
	b.mu.Unlock()
}

// TakeDoneLine returns the batch's completion log line exactly once,
// after the last point lands. The line's skip-rate report sums the
// cycle counters of the stored results here, so only a batch whose line
// is taken (a scheduler or coordinator with a Log) parses any result.
func (b *Batch) TakeDoneLine() (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != StateDone || b.logged {
		return "", false
	}
	b.logged = true
	line := fmt.Sprintf("batch %s done: %d points, %d cache hits, %d errors; %d snapshot groups, warm donors built=%d reused=%d",
		b.id, len(b.jobs), b.hits, len(b.errs), b.groups, b.warmBuilds, b.warmReuses)
	var cycles, skipped uint64
	for _, raw := range b.results {
		// A failed point (nil) or a result that does not parse adds
		// nothing, which is the right degradation for a log line.
		var c struct {
			Cycles        uint64
			SkippedCycles uint64
		}
		if json.Unmarshal(raw, &c) == nil {
			cycles += c.Cycles
			skipped += c.SkippedCycles
		}
	}
	if cycles > 0 {
		line += fmt.Sprintf("; clock-skip elided %d/%d cycles (%.1f%%)",
			skipped, cycles, 100*float64(skipped)/float64(cycles))
	}
	return line, true
}

// LogDone passes the batch's completion line to log once, after the
// last point lands: the scheduler and the coordinator call it wherever
// a batch may have finished. A nil log takes nothing.
func (b *Batch) LogDone(log func(format string, args ...any)) {
	if log == nil {
		return
	}
	if line, ok := b.TakeDoneLine(); ok {
		log("%s", line)
	}
}

// WaitEvent blocks until event i exists and returns it. ok is false
// when the batch finished before producing an i'th event (the stream's
// end) — iterate i upward from 0 to consume the full stream, history
// and live tail alike.
func (b *Batch) WaitEvent(ctx context.Context, i int) (ev Event, ok bool, err error) {
	for {
		b.mu.Lock()
		if i < len(b.events) {
			ev := b.events[i]
			b.mu.Unlock()
			return ev, true, nil
		}
		if b.state != StateRunning {
			b.mu.Unlock()
			return Event{}, false, nil
		}
		ch := b.changed
		b.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return Event{}, false, ctx.Err()
		}
	}
}

// Wait blocks until every point completed (or ctx expires) and returns
// the final status.
func (b *Batch) Wait(ctx context.Context) (BatchStatus, error) {
	for i := 0; ; i++ {
		_, ok, err := b.WaitEvent(ctx, i)
		if err != nil {
			return BatchStatus{}, err
		}
		if !ok {
			return b.Status(), nil
		}
	}
}
