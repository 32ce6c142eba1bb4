package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/stats"
)

// defaultHTTPClient is what Client uses when HTTPClient is unset. It
// bounds every phase that can hang on a dead peer — dialing, TLS, and
// waiting for response headers — but deliberately sets no overall
// request timeout: the /v1/batches/{id}/events stream stays open for
// as long as a batch runs, mirroring the ooosimd server side (which
// likewise uses ReadHeaderTimeout/IdleTimeout, never a whole-request
// deadline). A stuck stream is still bounded by TCP keep-alives and
// the caller's context.
var defaultHTTPClient = &http.Client{
	Transport: &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout:   5 * time.Second,
		ResponseHeaderTimeout: 30 * time.Second,
		IdleConnTimeout:       90 * time.Second,
		MaxIdleConnsPerHost:   16,
	},
}

// defaultRetrier backs Client requests when Retry is unset: a few
// attempts with fast jittered backoff, retrying transport faults and
// 429 backpressure (honouring Retry-After). 503 is deliberately NOT
// retried here — a draining node's 503 is a routing signal the fleet
// coordinator must see promptly, not absorb.
var defaultRetrier = &faults.Retrier{
	MaxAttempts: 3,
	BaseDelay:   100 * time.Millisecond,
	MaxDelay:    2 * time.Second,
	Retryable:   RetryableDefault,
}

// RetryableDefault is the client's stock retry classification:
// transport-level transient faults, plus 429 admission backpressure.
func RetryableDefault(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusTooManyRequests
	}
	return faults.Transient(err)
}

// Client talks to an ooosimd daemon.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8321".
	BaseURL string
	// HTTPClient overrides the package default (which carries dial and
	// response-header timeouts but no whole-request deadline, so event
	// streams run unbounded).
	HTTPClient *http.Client
	// Retry overrides the default retry policy (transient transport
	// faults and 429, with Retry-After honoured). Submit, Status and
	// Stream go through it; Ready does not — readiness probes must
	// report a node's state now, not after a backoff.
	Retry *faults.Retrier
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

func (c *Client) retrier() *faults.Retrier {
	if c.Retry != nil {
		return c.Retry
	}
	return defaultRetrier
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.BaseURL, "/") + path
}

// StatusError is a non-2xx server response, with the HTTP status code
// preserved so callers can react to backpressure (429) or drain (503)
// distinctly from hard failures, and the server's Retry-After carried
// through so backoff can honour it.
type StatusError struct {
	Code int
	Msg  string
	// RetryAfter is the server's Retry-After value, zero when absent.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("service: server: %s (HTTP %d)", e.Msg, e.Code)
	}
	return fmt.Sprintf("service: server returned HTTP %d", e.Code)
}

// RetryAfterHint implements faults.RetryAfterHinter, letting a Retrier
// sleep exactly as long as the server asked.
func (e *StatusError) RetryAfterHint() (time.Duration, bool) {
	if e.RetryAfter > 0 {
		return e.RetryAfter, true
	}
	return 0, false
}

// parseRetryAfter reads a Retry-After header (delta-seconds or
// HTTP-date), returning zero when absent or unparseable.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// decodeError surfaces the server's JSON error body.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var ae apiError
	json.Unmarshal(body, &ae)
	return &StatusError{Code: resp.StatusCode, Msg: ae.Error, RetryAfter: parseRetryAfter(resp.Header)}
}

// Ready probes the daemon's readiness endpoint: nil means the node
// admits new batches; ErrNotReady (wrapping the server's reason) means
// it is alive but draining or over its admission bound. Transport
// errors return as-is — the node is not merely unready, it is gone.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/readyz"), nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("%w: %s", ErrNotReady, strings.TrimSpace(string(body)))
}

// ErrNotReady reports a live node refusing new work (draining or over
// its admission bound); callers route elsewhere or back off.
var ErrNotReady = errors.New("service: node not ready")

// AwaitReady polls readiness until the node admits work or ctx expires.
// Transport errors keep polling (the node may still be booting).
func (c *Client) AwaitReady(ctx context.Context) error {
	for {
		if err := c.Ready(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("service: node %s never became ready: %w", c.BaseURL, ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Submit posts a batch and returns its submission-time status (cache
// hits are already complete in it). Transient transport failures and
// 429 backpressure are retried per the client's retry policy. A retry
// after a response was lost in flight can resubmit a batch the server
// already admitted; that is safe by construction — results are
// content-addressed, so the duplicate dedupes against the cache and
// singleflight layers and converges to identical bytes.
func (c *Client) Submit(ctx context.Context, jobs []Job) (BatchStatus, error) {
	body, err := json.Marshal(submitRequest{Jobs: jobs})
	if err != nil {
		return BatchStatus{}, err
	}
	return c.status(ctx, http.MethodPost, "/v1/batches", body, http.StatusAccepted, "submit response")
}

// Status polls a batch, retrying transient failures.
func (c *Client) Status(ctx context.Context, id string) (BatchStatus, error) {
	return c.status(ctx, http.MethodGet, "/v1/batches/"+id, nil, http.StatusOK, "status")
}

// status performs one batch-API request answered by a BatchStatus,
// retrying per the client's policy. A body that does not decode is
// retryable: for a submit, the batch was admitted but its id never
// arrived intact, and resubmitting is safe (see Submit).
func (c *Client) status(ctx context.Context, method, path string, body []byte, want int, what string) (BatchStatus, error) {
	var st BatchStatus
	err := c.retrier().Do(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, method, c.url(path), bytes.NewReader(body))
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			return decodeError(resp)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return faults.MarkTransient(fmt.Errorf("service: decode %s: %w", what, err))
		}
		return nil
	})
	if err != nil {
		return BatchStatus{}, err
	}
	return st, nil
}

// Stream consumes a batch's NDJSON progress stream from the beginning
// (the server replays history), invoking fn per event until the final
// "done" event, a callback error, or ctx expiry.
//
// A severed or garbled stream is healed by reconnecting: because the
// server replays full batch history on every stream open, the client
// counts events already delivered to fn and silently skips that prefix
// on reconnect, so fn sees each event exactly once no matter how many
// times the transport fails underneath. Errors returned by fn itself
// are never retried.
func (c *Client) Stream(ctx context.Context, id string, fn func(Event) error) error {
	delivered := 0
	return c.retrier().Do(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/batches/"+id+"/events"), nil)
		if err != nil {
			return err
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return decodeError(resp)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 16<<20) // occupancy histograms are large
		seen := 0
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var ev Event
			if err := json.Unmarshal(line, &ev); err != nil {
				// A garbled line is a transport fault: reconnect and let
				// history replay deliver the event intact.
				return faults.MarkTransient(fmt.Errorf("service: decode event: %w", err))
			}
			seen++
			if seen <= delivered {
				continue // replayed history already delivered to fn
			}
			delivered = seen
			if err := fn(ev); err != nil {
				return err
			}
			if ev.Type == "done" {
				return nil
			}
		}
		if err := sc.Err(); err != nil {
			return faults.MarkTransient(fmt.Errorf("service: event stream: %w", err))
		}
		return faults.MarkTransient(fmt.Errorf("service: event stream ended before the batch finished"))
	})
}

// FinishedAtAdmission reports whether st, the submit response for
// jobs, already holds the batch's whole outcome: state done, every
// point a cache hit, and every result present. The scheduler completes
// a batch's hits in index order at admission, so such a batch's stream
// would replay exactly the events Events rebuilds from the response.
func (st *BatchStatus) FinishedAtAdmission(jobs []Job) bool {
	if st.State != StateDone || st.Total != len(jobs) || st.CacheHits != len(jobs) || len(st.Results) != len(jobs) {
		return false
	}
	for _, raw := range st.Results {
		if len(raw) == 0 || string(raw) == "null" {
			return false
		}
	}
	return true
}

// Events delivers a submitted batch's events to fn, given its jobs and
// submit response st. A batch that FinishedAtAdmission needs no
// /events request: its events are rebuilt from st, one cached "result"
// per point in index order and then "done", as the stream would replay
// them. Any other batch streams (see Stream), so error events, late
// completions and re-routing behave as they always have.
func (c *Client) Events(ctx context.Context, jobs []Job, st BatchStatus, fn func(Event) error) error {
	if !st.FinishedAtAdmission(jobs) {
		return c.Stream(ctx, st.ID, fn)
	}
	for i, raw := range st.Results {
		ev := Event{Type: "result", Index: i, Name: jobs[i].label(), Cached: true, Done: i + 1, Total: len(jobs), Results: raw}
		if err := fn(ev); err != nil {
			return err
		}
	}
	return fn(Event{Type: "done", Index: -1, Done: len(jobs), Total: len(jobs)})
}

// Run submits a batch, collects its events through Events, and returns
// the decoded per-point results in submission order. An all-hit batch
// therefore costs one request (the submit response carries every
// result); any other batch also opens its progress stream. onEvent,
// when non-nil, receives every event; for "result" events it also gets
// the decoded results (each point is decoded exactly once — occupancy
// histograms make Results expensive to re-parse). Any failed point
// fails the whole call.
func (c *Client) Run(ctx context.Context, jobs []Job, onEvent func(Event, *stats.Results)) ([]stats.Results, error) {
	st, err := c.Submit(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]stats.Results, len(jobs))
	got := make([]bool, len(jobs))
	var pointErrs []string
	err = c.Events(ctx, jobs, st, func(ev Event) error {
		var res *stats.Results
		switch ev.Type {
		case "result":
			if ev.Index >= 0 && ev.Index < len(out) {
				if err := json.Unmarshal(ev.Results, &out[ev.Index]); err != nil {
					return fmt.Errorf("service: batch %s: decode point %d: %w", st.ID, ev.Index, err)
				}
				got[ev.Index] = true
				res = &out[ev.Index]
			}
		case "error":
			pointErrs = append(pointErrs, fmt.Sprintf("%s: %s", ev.Name, ev.Error))
		}
		if onEvent != nil {
			onEvent(ev, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(pointErrs) > 0 {
		return nil, fmt.Errorf("service: batch %s: %d point(s) failed: %s",
			st.ID, len(pointErrs), strings.Join(pointErrs, "; "))
	}
	for i := range got {
		if !got[i] {
			return nil, fmt.Errorf("service: batch %s: point %d produced no result", st.ID, i)
		}
	}
	return out, nil
}

// SweepRunner adapts the client to the sweep-engine signature
// (experiments.Options.Runner): the same figure code then executes
// against the remote daemon's warm cache instead of the in-process
// pool. Progress and OnResult callbacks fire per streamed event, with
// cache hits marked in the progress line.
func (c *Client) SweepRunner() func(ctx context.Context, specs []sim.RunSpec, opt sim.Options) ([]stats.Results, error) {
	return func(ctx context.Context, specs []sim.RunSpec, opt sim.Options) ([]stats.Results, error) {
		// Route on readiness: a draining or backlogged daemon answers
		// /readyz with 503/429 semantics, and a sweep is interactive work
		// that should wait for admission rather than bounce off it.
		if err := c.AwaitReady(ctx); err != nil {
			return nil, err
		}
		jobs := make([]Job, len(specs))
		for i, spec := range specs {
			j, err := JobFromSpec(spec)
			if err != nil {
				return nil, err
			}
			jobs[i] = j
		}
		var onEvent func(Event, *stats.Results)
		if opt.Progress != nil || opt.OnResult != nil {
			onEvent = func(ev Event, res *stats.Results) {
				if res == nil {
					return // not a result event
				}
				spec := specs[ev.Index]
				if opt.Progress != nil {
					line := sim.ProgressLine(spec, *res)
					if ev.Cached {
						line += "  (cached)"
					}
					opt.Progress(ev.Done, ev.Total, line)
				}
				if opt.OnResult != nil {
					opt.OnResult(spec, *res)
				}
			}
		}
		return c.Run(ctx, jobs, onEvent)
	}
}
