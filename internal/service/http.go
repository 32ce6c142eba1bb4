package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"
)

// API wire types.
type submitRequest struct {
	Jobs []Job `json:"jobs"`
}

type apiError struct {
	Error string `json:"error"`
}

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
//	                             bound, 503 + Retry-After while draining
//	GET  /v1/batches/{id}        poll a batch, 200 + BatchStatus
//	GET  /v1/batches/{id}/events NDJSON progress stream: full history
//	                             replayed, then live events, closed
//	                             after the final "done" event
//	GET  /healthz                liveness probe (always 200 while serving)
//	GET  /readyz                 readiness probe (see HandlerOptions.Ready)
//	POST /drainz                 start graceful drain (see StartDrain)
//	GET  /metrics                Prometheus text metrics (see Metrics)
//	GET  /v1/donors/{key}        warm-donor snapshot (workers only)
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

	mux.HandleFunc("POST /v1/batches", func(w http.ResponseWriter, r *http.Request) {
		var req submitRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request body: " + err.Error()})
			return
		}
		b, err := s.Submit(req.Jobs)
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
