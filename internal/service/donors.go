package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/keyed"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// donorSumHeader carries the hex SHA-256 of the snapshot body on
// GET /v1/donors/{key} responses. Snapshot validation in mem is
// structural (magic, lengths, bounds) and cannot detect bit flips
// inside the tag arrays, so the transport adds an end-to-end digest:
// a fetch whose body does not hash to the header, or that carries no
// header, is rejected (and retried, then degraded to a local warm-up —
// never silently adopted).
const donorSumHeader = "X-Ooosim-Snapshot-Sum"

// DonorExchange is the warm-donor shipping fabric of a worker fleet.
//
// Every snapshot group (a sim.WarmGroup: trace recipe, warm-relevant
// cache shape and warm length) has one *home node*, chosen by sharding
// the group's donor key over the fleet's canonical peer list. The home
// node warms the group's donor exactly once; every other node adopts it
// over HTTP (GET /v1/donors/{key}) instead of replaying the warm-up
// itself, so a fleet of N nodes sweeping G groups performs G donor
// warm-ups, not N*G. Full-detail and sampled points of one group share
// its donor alike. The endpoint builds on demand: a request carrying
// the group as its spec makes the home node warm the donor, from a
// fresh stream of the recipe, even before any of its own points need
// it, which is what makes the one-build guarantee deterministic rather
// than a race.
//
// Failure degrades, never blocks: a dead or misbehaving home node means
// the requester warms locally (exactly the pre-fleet behaviour), and a
// node with no peer list behaves like a single-node daemon.
//
// The exchange holds the node's one donor memo, keyed by the group's
// DonorKey and read by the scheduler's miss path and the endpoint alike;
// a scheduler without a configured exchange keeps a peerless one it does
// not serve.
//
// Donors ship as mem.Hierarchy snapshots (see mem.WriteSnapshot); the
// adopted donor forks bit-identically to a locally warmed one, so
// results are byte-identical whichever path produced the donor.
type DonorExchange struct {
	self   string   // this node's entry in peers (empty or unlisted: home to no group)
	peers  []string // all fleet workers, same canonical order on every node
	client *http.Client

	donors keyed.Memo[string, donor]

	adopted      atomic.Uint64 // donors fetched from a peer
	built        atomic.Uint64 // donors warmed on this node
	shipped      atomic.Uint64 // donors served to peers
	fetchRetries atomic.Uint64 // fetch attempts retried before success or fallback
	fetchFails   atomic.Uint64 // peer fetches that fell back to local warm-up
}

const donorMemoLimit = 128 // donors are a few hundred KB each

// donor is one memoised warm donor: the hierarchy its snapshot group's
// points fork, and its wire form, serialised on the first peer request.
type donor struct {
	h        *mem.Hierarchy
	snapshot func() ([]byte, error)
}

func newDonor(h *mem.Hierarchy) donor {
	return donor{h: h, snapshot: sync.OnceValues(func() ([]byte, error) {
		var buf bytes.Buffer
		err := h.WriteSnapshot(&buf)
		return buf.Bytes(), err
	})}
}

// NewDonorExchange builds the exchange for a node. peers is the full
// fleet worker list — every node must pass the same URLs in the same
// order, or home selection diverges and the one-build guarantee decays
// to best-effort adoption. self is this node's own entry in peers. A
// node whose self is empty or unlisted is home to no group: it adopts
// every donor from the group's home, warming locally only when that
// fails. A node without peers warms everything locally and only serves.
func NewDonorExchange(self string, peers []string) *DonorExchange {
	return &DonorExchange{
		self:  self,
		peers: append([]string(nil), peers...),
		// Donor fetches block a warm-up, not a request handler; the
		// timeout must cover an on-demand build (a warm replay of the
		// recipe's stream, well under a second at figure scale) plus
		// shipping a few hundred KB.
		client: &http.Client{Timeout: 30 * time.Second},
		donors: keyed.Memo[string, donor]{Limit: donorMemoLimit},
	}
}

// DonorKey returns the group's content address: a hex SHA-256 over the
// canonical recipe string, the warm key and, when set, the warm length.
// Peers address donors by it, and home selection shards it over the
// peer list.
func DonorKey(g sim.WarmGroup) string {
	keyJSON, err := json.Marshal(g.Warm)
	if err != nil {
		// WarmKey is a plain struct of plain structs; Marshal cannot fail.
		panic(fmt.Sprintf("service: marshal warm key: %v", err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "ooosim-donor-v1\x00%s\x00", g.Trace.String())
	h.Write(keyJSON)
	if g.Len != 0 {
		fmt.Fprintf(h, "\x00len=%d", g.Len)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// home returns the node responsible for warming key, or "" for a node
// without peers.
func (dx *DonorExchange) home(key string) string {
	if len(dx.peers) == 0 {
		return ""
	}
	return dx.peers[sim.ShardFor(key, len(dx.peers))]
}

// Acquire returns group g's donor, building it once per node: adopted
// from the group's home node when that is a peer, warmed locally
// otherwise (or when the peer fails) by g.WarmDonor(tr), where tr is a
// materialised trace of the group's workload or nil to warm from the
// recipe's stream. reused is false for the one call that built it. A
// group that cannot be warmed returns its warm-up's error to every
// caller.
func (dx *DonorExchange) Acquire(g sim.WarmGroup, tr *trace.Trace) (h *mem.Hierarchy, reused bool, err error) {
	key := DonorKey(g)
	d, built, err := dx.donors.Get(key, func() (donor, error) {
		if home := dx.home(key); home != "" && home != dx.self {
			if h, err := dx.fetch(home, g); err == nil {
				dx.adopted.Add(1)
				return newDonor(h), nil
			}
			dx.fetchFails.Add(1)
		}
		return dx.warm(g, tr)
	})
	return d.h, !built, err
}

// warm builds a donor on this node.
func (dx *DonorExchange) warm(g sim.WarmGroup, tr *trace.Trace) (donor, error) {
	h, err := g.WarmDonor(tr)
	if err != nil {
		return donor{}, err
	}
	dx.built.Add(1)
	return newDonor(h), nil
}

// UseTransport swaps the fetch client's transport (chaos injection).
func (dx *DonorExchange) UseTransport(rt http.RoundTripper) {
	dx.client = &http.Client{Timeout: dx.client.Timeout, Transport: rt}
}

// maxDonorSnapshot bounds how much body a fetch will buffer for digest
// verification; donors are a few hundred KB, so 64 MB is pathology.
const maxDonorSnapshot = 64 << 20

// fetch retrieves (building on demand) the donor for spec from peer,
// retrying transient transport failures and integrity mismatches a few
// times before the caller falls back to a local warm-up. The body is
// verified against the peer's snapshot digest header before a single
// byte of it is parsed.
func (dx *DonorExchange) fetch(peer string, spec sim.WarmGroup) (*mem.Hierarchy, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	url := fmt.Sprintf("%s/v1/donors/%s?spec=%s",
		peer, DonorKey(spec), base64.RawURLEncoding.EncodeToString(specJSON))
	retrier := &faults.Retrier{
		MaxAttempts: 3,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    time.Second,
		OnRetry:     func(int, error, time.Duration) { dx.fetchRetries.Add(1) },
	}
	var donor *mem.Hierarchy
	err = retrier.Do(nil, func() error {
		resp, err := dx.client.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			err := fmt.Errorf("service: donor fetch: %s: %s", resp.Status, bytes.TrimSpace(body))
			if resp.StatusCode >= 500 {
				// A 5xx home may just be mid-hiccup; 404/400 are terminal
				// (unwarmed or mismatched — retrying won't change them).
				return faults.MarkTransient(err)
			}
			return err
		}
		blob, err := io.ReadAll(io.LimitReader(resp.Body, maxDonorSnapshot))
		if err != nil {
			return faults.MarkTransient(fmt.Errorf("service: donor fetch: %w", err))
		}
		if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:]) != resp.Header.Get(donorSumHeader) {
			// Damaged in transit, or sent without its digest: the peer's
			// copy is fine, refetch.
			return faults.MarkTransient(fmt.Errorf("service: donor fetch: snapshot digest mismatch"))
		}
		d, err := mem.ReadSnapshot(bytes.NewReader(blob))
		if err != nil {
			return faults.MarkTransient(fmt.Errorf("service: donor fetch: %w", err))
		}
		if d.WarmKey() != spec.Warm {
			return fmt.Errorf("service: donor fetch: peer returned warm key %+v, want %+v",
				d.WarmKey(), spec.Warm)
		}
		donor = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	return donor, nil
}

// ServeHTTP answers GET /v1/donors/{key}: the serialised donor for the
// group, built on demand when the request carries the group's spec, the
// base64url JSON of its sim.WarmGroup (a natural-length group's carries
// no "len"). Without a spec only already-warmed donors are served (404
// otherwise).
func (dx *DonorExchange) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	var spec *sim.WarmGroup
	if raw := r.URL.Query().Get("spec"); raw != "" {
		specJSON, err := base64.RawURLEncoding.DecodeString(raw)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad spec encoding: " + err.Error()})
			return
		}
		var s sim.WarmGroup
		if err := json.Unmarshal(specJSON, &s); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad spec: " + err.Error()})
			return
		}
		// A sampled group's recipe may pass the materialisation cap,
		// as Job.Validate allows, and only a synthetic stream sets a
		// warm length.
		err = s.Trace.ValidateStreamed()
		if err == nil {
			err = s.Warm.Validate()
		}
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
			return
		}
		if s.Len != 0 && (s.Trace.Kernel == trace.KernelProgram || s.Len > trace.MaxStreamInsts) {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf(
				"bad spec: warm length %d on %s: only a synthetic stream takes one, of at most %d", s.Len, s.Trace, trace.MaxStreamInsts)})
			return
		}
		if DonorKey(s) != key {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "spec does not hash to the requested donor key"})
			return
		}
		spec = &s
	}

	// Only a spec builds. A bare lookup must not insert, or requests for
	// unknown keys would flush warmed donors out of the memo.
	d, ok, err := dx.donors.Peek(key)
	if !ok && spec != nil {
		ok = true
		d, _, err = dx.donors.Get(key, func() (donor, error) { return dx.warm(*spec, nil) })
	}
	if !ok {
		// Not built here, and no spec to build from: the requester warms
		// locally.
		writeJSON(w, http.StatusNotFound, apiError{Error: "donor not warmed on this node"})
		return
	}
	var blob []byte
	if err == nil {
		blob, err = d.snapshot()
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	sum := sha256.Sum256(blob)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(blob)))
	w.Header().Set(donorSumHeader, hex.EncodeToString(sum[:]))
	if _, err := w.Write(blob); err == nil {
		dx.shipped.Add(1)
	}
}

// writeMetrics renders the exchange counters (part of the scheduler's
// /metrics surface).
func (dx *DonorExchange) writeMetrics(w io.Writer) {
	Counter(w, "ooosim_donors_adopted_total", "Warm donors adopted from a peer instead of warming locally.", dx.adopted.Load())
	Counter(w, "ooosim_donors_shipped_total", "Warm donors served to peers.", dx.shipped.Load())
	Counter(w, "ooosim_donor_fetch_retries_total", "Donor fetch attempts retried after a transient failure.", dx.fetchRetries.Load())
	Counter(w, "ooosim_donor_fetch_failures_total", "Peer donor fetches that fell back to a local warm-up.", dx.fetchFails.Load())
}

// Stats reports the exchange counters (tests and operator tooling).
func (dx *DonorExchange) Stats() (adopted, built, shipped, fetchFails uint64) {
	return dx.adopted.Load(), dx.built.Load(), dx.shipped.Load(), dx.fetchFails.Load()
}
