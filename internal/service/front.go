package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ErrDraining rejects submissions while the node is draining.
var ErrDraining = errors.New("service: draining, not admitting new batches")

// ErrOverloaded rejects submissions that would push the queue past the
// admission bound. The HTTP layer maps it to 429 with Retry-After.
var ErrOverloaded = errors.New("service: queue full")

// retainBatches bounds how many finished batches stay pollable before
// the oldest are forgotten.
const retainBatches = 256

// Front is the batch front end a Scheduler and a fleet Coordinator
// both embed: validation and fingerprinting, the split of a batch into
// cache hits and misses, queue-bound admission and its counters, batch
// ids, bounded retention, drain and readiness. Queued work is cache
// misses, at a scheduler and a coordinator alike.
type Front struct {
	idPrefix string
	maxQueue int

	submitted atomic.Uint64
	rejected  atomic.Uint64
	points    atomic.Uint64
	queued    atomic.Int64 // admitted misses not yet finished
	draining  atomic.Bool

	mu         sync.Mutex
	batches    map[string]*Batch
	order      []string // admission order, for bounded retention
	nextID     int
	maxBatches int
}

// NewFront builds a front whose batch ids start with prefix and which
// admits at most maxQueue queued misses (<= 0 admits everything).
// Every id also carries a random part drawn once per front, so a
// restarted process never reissues an id a client may still be
// streaming: a reconnect after a restart gets 404, not some other
// batch.
func NewFront(prefix string, maxQueue int) *Front {
	return &Front{
		idPrefix:   fmt.Sprintf("%s%08x-", prefix, rand.Uint32()),
		maxQueue:   maxQueue,
		batches:    map[string]*Batch{},
		maxBatches: retainBatches,
	}
}

// Prepare validates and fingerprints a batch. An empty batch, or any
// batch while draining (ErrDraining, counted as a rejection), is
// refused, and one invalid job rejects the whole batch.
func (f *Front) Prepare(jobs []Job) (fps []string, err error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("service: empty batch")
	}
	if f.draining.Load() {
		f.rejected.Add(1)
		return nil, ErrDraining
	}
	fps = make([]string, len(jobs))
	for i, j := range jobs {
		err := j.Validate()
		if err == nil {
			fps[i], err = j.Fingerprint()
		}
		if err != nil {
			return nil, fmt.Errorf("service: job %d (%s): %w", i, j.label(), err)
		}
	}
	return fps, nil
}

// AdmitHits looks every fingerprint of a prepared batch up in cache
// and admits the batch with its misses as the queued work. The hits
// complete at once, in index order, and the misses' indices come back
// for the embedder to run; it calls Finished as each one completes.
// Admission refuses the batch with ErrOverloaded when misses are
// already queued and its own would push the queue past the bound. A
// batch with no misses always passes, and so does any batch on an idle
// front, however large: a batch bigger than the bound could otherwise
// never run. Nothing is registered on refusal.
func (f *Front) AdmitHits(cache *Cache, jobs []Job, fps []string) (*Batch, []int, error) {
	hits := make([]json.RawMessage, len(jobs))
	var misses []int
	for i, fp := range fps {
		if raw, _ := cache.Get(fp); raw != nil {
			hits[i] = raw
		} else {
			misses = append(misses, i)
		}
	}
	n := int64(len(misses))
	if f.maxQueue > 0 && n > 0 {
		if q := f.queued.Load(); q > 0 && q+n > int64(f.maxQueue) {
			f.rejected.Add(1)
			return nil, nil, fmt.Errorf("%w: %d queued + %d new > bound %d", ErrOverloaded, q, n, f.maxQueue)
		}
	}
	f.submitted.Add(1)
	f.points.Add(uint64(len(jobs)))
	f.queued.Add(n)

	f.mu.Lock()
	f.nextID++
	b := NewBatch(f.idPrefix+strconv.Itoa(f.nextID), append([]Job(nil), jobs...), fps)
	f.batches[b.id] = b
	f.order = append(f.order, b.id)
	for len(f.order) > f.maxBatches {
		// Only retire finished batches; a pathological flood of
		// still-running batches stays addressable.
		if victim := f.batches[f.order[0]]; victim != nil && victim.State() == StateRunning {
			break
		}
		delete(f.batches, f.order[0])
		f.order = f.order[1:]
	}
	f.mu.Unlock()

	for i, raw := range hits {
		if raw != nil {
			b.Complete(i, raw, true, nil)
		}
	}
	return b, misses, nil
}

// Finished releases misses admitted by AdmitHits.
func (f *Front) Finished(n int) { f.queued.Add(-int64(n)) }

// Counts reports the batches admitted and refused, the points
// admitted, and the misses queued but not yet finished.
func (f *Front) Counts() (submitted, rejected, points uint64, queued int64) {
	return f.submitted.Load(), f.rejected.Load(), f.points.Load(), f.queued.Load()
}

// Batch returns a previously submitted batch by ID.
func (f *Front) Batch(id string) (*Batch, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.batches[id]
	return b, ok
}

// StartDrain flips the front into drain mode: new submissions are
// rejected with ErrDraining, readiness goes false, and in-flight work
// runs to completion. Idempotent.
func (f *Front) StartDrain() { f.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (f *Front) Draining() bool { return f.draining.Load() }

// Drain starts draining and blocks until every admitted miss has
// finished (or ctx expires). The poll interval is coarse; drain is
// a shutdown path, not a hot one.
func (f *Front) Drain(ctx context.Context) error {
	f.StartDrain()
	for f.queued.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	return nil
}

// Ready reports why the node should not receive new work (draining, or
// queue at the admission bound); nil means ready. The /readyz endpoint
// and fleet coordinators route on it.
func (f *Front) Ready() error {
	if f.draining.Load() {
		return ErrDraining
	}
	if q := f.queued.Load(); f.maxQueue > 0 && q >= int64(f.maxQueue) {
		return fmt.Errorf("%w: %d queued >= bound %d", ErrOverloaded, q, f.maxQueue)
	}
	return nil
}
