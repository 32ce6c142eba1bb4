package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Journal is the scheduler's batch recovery log: an append-only NDJSON
// file recording which batches were admitted and which have finished. A
// restarted ooosimd replays it (see Scheduler.Recover) and re-admits
// every batch that was in flight at the crash — points that completed
// before it come back as disk-cache hits, so only the genuinely missing
// points re-simulate, and determinism pins the resumed batch
// byte-identical to what the original would have produced.
//
// Record types, one JSON object per line:
//
//	{"t":"batch","id":"b12","jobs":[...]}   batch admitted with >=1 miss
//	{"t":"batchdone","id":"b12"}            every point of b12 landed
//
// Replay skips any other record type, so a journal written by an older
// daemon (which also logged each completed point) replays the same
// pending batches.
//
// Appends are single-writer under a mutex onto an O_APPEND file, so a
// crash can tear at most the final record; Replay tolerates (and
// drops) a torn last line. The file is truncated after a successful
// recovery, bounding growth to one daemon lifetime's in-flight work.
type Journal struct {
	mu   sync.Mutex
	path string
	f    *os.File
}

type journalRecord struct {
	T    string `json:"t"`
	ID   string `json:"id,omitempty"`
	Jobs []Job  `json:"jobs,omitempty"`
}

// OpenJournal opens (creating if needed) the journal at path.
func OpenJournal(path string) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("service: journal dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: journal: %w", err)
	}
	return &Journal{path: path, f: f}, nil
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// append writes one record as a single line. Failures are returned but
// callers treat them as non-fatal: a journal that cannot be written
// degrades recovery, never correctness of the running daemon.
func (j *Journal) append(rec journalRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err = j.f.Write(b)
	return err
}

// AppendBatch records an admitted batch (only batches with misses are
// worth journaling — all-hit batches complete synchronously).
func (j *Journal) AppendBatch(id string, jobs []Job) error {
	return j.append(journalRecord{T: "batch", ID: id, Jobs: jobs})
}

// AppendBatchDone records that every point of a journaled batch landed.
func (j *Journal) AppendBatchDone(id string) error {
	return j.append(journalRecord{T: "batchdone", ID: id})
}

// RecoveredBatch is one batch Replay found admitted but unfinished.
type RecoveredBatch struct {
	ID   string
	Jobs []Job
}

// Replay reads the journal and returns the batches still in flight at
// the last shutdown (admitted, no batchdone). Unparseable lines — the
// torn final record an O_APPEND crash can leave — are skipped, not
// fatal: at worst a torn "batchdone" re-admits a finished batch, whose
// points all come back as cache hits.
func (j *Journal) Replay() (pending []RecoveredBatch, err error) {
	f, err := os.Open(j.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("service: journal replay: %w", err)
	}
	defer f.Close()

	batches := map[string]*RecoveredBatch{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20) // batch records carry full job lists
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // torn or damaged record
		}
		switch rec.T {
		case "batch":
			if rec.ID == "" || len(rec.Jobs) == 0 {
				continue
			}
			if _, ok := batches[rec.ID]; !ok {
				order = append(order, rec.ID)
			}
			batches[rec.ID] = &RecoveredBatch{ID: rec.ID, Jobs: rec.Jobs}
		case "batchdone":
			delete(batches, rec.ID)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("service: journal replay: %w", err)
	}
	for _, id := range order {
		if rb, ok := batches[id]; ok {
			pending = append(pending, *rb)
		}
	}
	return pending, nil
}

// Reset truncates the journal. Called after recovery has re-admitted
// the pending batches (whose fresh "batch" records re-append), so the
// file stays bounded by in-flight work rather than daemon history.
func (j *Journal) Reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Truncate(0)
}
