package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"repro/internal/keyed"
)

// API wire types.
type submitRequest struct {
	Jobs []Job `json:"jobs"`
}

// submitEnvelope is a submission as the handler reads it: each job
// stays its raw element until the job memo has looked its bytes up.
type submitEnvelope struct {
	Jobs []json.RawMessage `json:"jobs"`
}

type apiError struct {
	Error string `json:"error"`
}

// maxBatchBody bounds a batch submission's body on workers and
// coordinators alike: about 40 times the largest batch in the tree, the
// benchmark's fleet-warm prime of all 726 fleet points (about 0.8 MB).
const maxBatchBody = 32 << 20

// BatchAPI is the submit/poll surface shared by a worker scheduler and
// a fleet coordinator: anything implementing it serves the same HTTP
// API, so clients cannot tell a coordinator from a single node.
type BatchAPI interface {
	Submit(jobs []Job) (*Batch, error)
	Batch(id string) (*Batch, bool)
}

// HandlerOptions adds the production endpoints around the batch API.
type HandlerOptions struct {
	// Metrics, when non-nil, serves GET /metrics in Prometheus text
	// exposition format.
	Metrics func(w io.Writer)
	// Ready, when non-nil, backs GET /readyz: nil return is 200, an
	// error is 503 with the reason in the body. /healthz stays pure
	// liveness either way.
	Ready func() error
	// StartDrain, when non-nil, backs POST /drainz: stop admitting,
	// finish in-flight, flip readiness. The process-level shutdown
	// (waiting out the queue, closing the listener) stays with the
	// daemon's signal handler; the endpoint only initiates.
	StartDrain func()
	// Donors, when non-nil, serves GET /v1/donors/{key} (warm-donor
	// snapshot shipping between fleet workers).
	Donors http.Handler
}

// NewAPIHandler returns the HTTP API over any BatchAPI:
//
//	POST /v1/batches             submit a batch ({"jobs":[...]}),
//	                             202 + BatchStatus (hits already done);
//	                             429 + Retry-After over the admission
//	                             bound, 503 + Retry-After while draining,
//	                             413 past maxBatchBody bytes
//	GET  /v1/batches/{id}        poll a batch, 200 + BatchStatus
//	GET  /v1/batches/{id}/events NDJSON progress stream: full history
//	                             replayed, then live events, closed
//	                             after the final "done" event
//	GET  /healthz                liveness probe (always 200 while serving)
//	GET  /readyz                 readiness probe (see HandlerOptions.Ready)
//	POST /drainz                 start graceful drain (see StartDrain)
//	GET  /metrics                Prometheus text metrics (see Metrics)
//	GET  /v1/donors/{key}        warm-donor snapshot (workers only)
//
// A submission is decoded strictly: an unknown or wrongly typed field
// anywhere, or anything but whitespace after the batch object, is a 400
// that names it. The handler remembers each job element it decoded, by
// the SHA-256 of its exact bytes, in a memo of at most jobMemoLimit
// jobs (see decodeJobs), so a repeated job is not decoded again; with
// Front.Prepare's fingerprint memo, an all-hit batch pays one scan of
// its body plus one hash and two map lookups per job.
func NewAPIHandler(s BatchAPI, opt HandlerOptions) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if opt.Ready != nil {
			if err := opt.Ready(); err != nil {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, err.Error())
				return
			}
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})

	if opt.StartDrain != nil {
		mux.HandleFunc("POST /drainz", func(w http.ResponseWriter, r *http.Request) {
			opt.StartDrain()
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "draining")
		})
	}

	if opt.Metrics != nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			opt.Metrics(w)
		})
	}

	if opt.Donors != nil {
		mux.Handle("GET /v1/donors/{key}", opt.Donors)
	}

	decoded := &keyed.Memo[[sha256.Size]byte, Job]{Limit: jobMemoLimit}
	mux.HandleFunc("POST /v1/batches", func(w http.ResponseWriter, r *http.Request) {
		jobs, err := decodeJobs(http.MaxBytesReader(w, r.Body, maxBatchBody), decoded)
		if err != nil {
			code := http.StatusBadRequest
			if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, code, apiError{Error: "bad request body: " + err.Error()})
			return
		}
		b, err := s.Submit(jobs)
		if err != nil {
			switch {
			case errors.Is(err, ErrOverloaded):
				// Backpressure, not failure: the client should retry
				// after the queue recedes.
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
			case errors.Is(err, ErrDraining):
				w.Header().Set("Retry-After", "5")
				writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
			default:
				writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
			}
			return
		}
		writeJSON(w, http.StatusAccepted, b.Status())
	})

	mux.HandleFunc("GET /v1/batches/{id}", func(w http.ResponseWriter, r *http.Request) {
		b, ok := s.Batch(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, apiError{Error: "no such batch"})
			return
		}
		writeJSON(w, http.StatusOK, b.Status())
	})

	mux.HandleFunc("GET /v1/batches/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		b, ok := s.Batch(r.PathValue("id"))
		if !ok {
			writeJSON(w, http.StatusNotFound, apiError{Error: "no such batch"})
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		rc := http.NewResponseController(w)
		enc := json.NewEncoder(w)
		for i := 0; ; i++ {
			ev, ok, err := b.WaitEvent(r.Context(), i)
			if err != nil || !ok {
				return // client went away, or stream complete
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			rc.Flush()
		}
	})

	return mux
}

// decodeJobs reads a submission body: the envelope strictly (an unknown
// field, or anything but whitespace after it, is an error), then each
// job element through memo, keyed by the SHA-256 of the element's exact
// bytes. A remembered element returns what its first strict decode
// returned, error included, so a repeated job costs one hash and one
// lookup instead of a reflection decode. An error names the job's
// index in the batch.
func decodeJobs(body io.Reader, memo *keyed.Memo[[sha256.Size]byte, Job]) ([]Job, error) {
	var req submitEnvelope
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		// A read error (such as the size bound) stays itself.
		if err == nil || errors.As(err, new(*json.SyntaxError)) {
			err = errors.New("trailing data after the batch object")
		}
		return nil, err
	}
	jobs := make([]Job, len(req.Jobs))
	for i, raw := range req.Jobs {
		job, _, err := memo.Get(sha256.Sum256(raw), func() (Job, error) { return strictJob(raw) })
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		jobs[i] = job
	}
	return jobs, nil
}

// strictJob decodes one job element as strictly as the envelope: an
// unknown field is an error. It is a variable so tests can count the
// decodes the memo saves.
var strictJob = func(raw []byte) (Job, error) {
	var j Job
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err := dec.Decode(&j)
	return j, err
}

// NewHandler returns the worker daemon's full HTTP surface over a
// scheduler: the batch API plus metrics, readiness, drain and (when the
// scheduler has a donor exchange) the donor-shipping endpoint.
func NewHandler(s *Scheduler) http.Handler {
	opt := HandlerOptions{
		Metrics:    s.WriteMetrics,
		Ready:      s.Ready,
		StartDrain: s.StartDrain,
	}
	if dx := s.Donors(); dx != nil {
		opt.Donors = dx
	}
	return NewAPIHandler(s, opt)
}

// Serve is a daemon's serve loop. It serves h on addr until ctx is
// done, then drains (drain gets drainTimeout), shuts the server down,
// giving in-flight responses up to five seconds to finish, and logs the
// exit; name prefixes the log lines. It returns nil only after Shutdown
// has returned. A listen failure returns at once. verbose logs every
// request.
func Serve(ctx context.Context, name, addr string, h http.Handler, drain func(context.Context) error, drainTimeout time.Duration, verbose bool) error {
	if verbose {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			inner.ServeHTTP(w, r)
			log.Printf("%s %s (%.1fms)", r.Method, r.URL.Path, float64(time.Since(start).Microseconds())/1000)
		})
	}
	srv := &http.Server{
		Addr:    addr,
		Handler: h,
		// A client that stalls mid-headers or parks an idle connection
		// must not wedge the daemon (the default is no timeout at all).
		// WriteTimeout and ReadTimeout stay 0 on purpose:
		// /v1/batches/{id}/events streams NDJSON for as long as a batch
		// runs, and either deadline would sever live streams (ReadTimeout
		// trips the server's background read mid-handler). Slow-loris
		// headers are bounded by ReadHeaderTimeout and parked keep-alive
		// connections by IdleTimeout.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	select {
	case err := <-served:
		return err // never nil: the listener failed before any shutdown
	case <-ctx.Done():
	}
	log.Printf("%s: signal received, draining (timeout %s)", name, drainTimeout)
	// ctx is done by now; the drain and the grace get their own deadlines.
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drainTimeout)
	defer cancel()
	if err := drain(dctx); err != nil {
		log.Printf("%s: drain incomplete: %v", name, err)
	}
	// In-flight streams flush during Shutdown's grace window.
	sctx, cancel2 := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel2()
	srv.Shutdown(sctx)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Printf("%s: drained, exiting", name)
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
