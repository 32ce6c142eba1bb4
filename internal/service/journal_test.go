package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// openTestJournal opens a journal under a temp dir.
func openTestJournal(t *testing.T, dir string) *Journal {
	t.Helper()
	j, err := OpenJournal(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	jobsA := []Job{testJob("a0", 32), testJob("a1", 48)}
	jobsB := []Job{testJob("b0", 64)}

	if err := j.AppendBatch("b1", jobsA); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatch("b2", jobsB); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatchDone("b2"); err != nil {
		t.Fatal(err)
	}

	pending, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].ID != "b1" {
		t.Fatalf("pending = %+v, want just b1", pending)
	}
	if len(pending[0].Jobs) != 2 || pending[0].Jobs[0].Name != "a0" {
		t.Fatalf("recovered jobs wrong: %+v", pending[0].Jobs)
	}

	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	pending, err = j.Replay()
	if err != nil || len(pending) != 0 {
		t.Fatalf("post-reset replay not empty: %v %v", pending, err)
	}
}

// TestJournalReplaySkipsUnknownRecords: a journal written by an older
// daemon carries a "point" record per completed miss, and a newer one may
// add record types; replay skips them and recovers the same pending
// batches.
func TestJournalReplaySkipsUnknownRecords(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	if err := j.AppendBatch("b1", []Job{testJob("a", 32)}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatch("b2", []Job{testJob("b", 48)}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "journal.ndjson"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`{"t":"point","fp":"` + fakeKey(0) + `"}`,
		`{"t":"point","fp":"` + fakeKey(1) + `"}`,
		`{"t":"future","id":"b1"}`,
		`{"t":"batchdone","id":"b2"}`,
	} {
		if _, err := f.WriteString(line + "\n"); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	pending, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].ID != "b1" || pending[0].Jobs[0].Name != "a" {
		t.Fatalf("pending = %+v, want just b1", pending)
	}
}

// TestJournalTornFinalRecord: a crash mid-append leaves a torn last
// line; replay drops it and keeps everything before it.
func TestJournalTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	if err := j.AppendBatch("b1", []Job{testJob("a", 32)}); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn write: a prefix of a valid record, no newline.
	path := filepath.Join(dir, "journal.ndjson")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"batch","id":"b2","jobs":[{"na`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	pending, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].ID != "b1" {
		t.Fatalf("torn record corrupted replay: pending=%+v", pending)
	}
}

// TestRestartRecovery is the journal's crash contract: a daemon dies
// mid-batch (one point completed into the disk cache, the batch record
// journaled without its batchdone, plus a torn final record), a fresh
// scheduler over the same cache dir recovers, and the resumed batch
// completes byte-identical with zero duplicate simulator calls for the
// already-cached point.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	jobs := []Job{testJob("p0", 32), testJob("p1", 48), testJob("p2", 64)}

	// Reference bytes from an isolated scheduler (no cache dir shared).
	ref := NewScheduler(SchedulerOptions{Workers: 2})
	refBatch, err := ref.Submit(jobs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	refStatus, err := refBatch.Wait(ctx)
	if err != nil || len(refStatus.Errors) != 0 {
		t.Fatalf("reference run failed: %v %v", err, refStatus.Errors)
	}

	// "Crashing" daemon: run the full batch so its journal and cache
	// fill, then fabricate the crash state by rewriting the journal as
	// if only the batch record (and no batchdone) made it to disk — plus
	// a torn final record — and evicting p1/p2 from the disk cache.
	cache1, err := NewCache(4, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	j1 := openTestJournal(t, dir)
	s1, _ := countingScheduler(t, SchedulerOptions{Workers: 2, Cache: cache1, Journal: j1}, 0)
	b1, err := s1.Submit(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	fps := b1.Fingerprints()
	for _, fp := range fps[1:] {
		if err := os.Remove(filepath.Join(cacheDir, fp[:2], fp+".json")); err != nil {
			t.Fatalf("evict %s: %v", fp, err)
		}
	}
	jpath := filepath.Join(dir, "journal.ndjson")
	if err := os.WriteFile(jpath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if err := j2.AppendBatch("b1", jobs); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":"batch","id":"b2","jobs":[{"torn`)
	f.Close()

	// Restarted daemon over the same cache dir and journal.
	cache2, err := NewCache(4, cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	s2, runs2 := countingScheduler(t, SchedulerOptions{Workers: 2, Cache: cache2, Journal: j2}, 0)
	requeued, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if requeued != 1 {
		t.Fatalf("requeued = %d, want 1", requeued)
	}
	if got := s2.metrics.RecoveredBatches.Load(); got != 1 {
		t.Fatalf("RecoveredBatches = %d, want 1", got)
	}

	// The recovered batch is addressable through the normal API.
	s2.mu.Lock()
	if len(s2.order) != 1 {
		s2.mu.Unlock()
		t.Fatalf("recovered scheduler has %d batches", len(s2.order))
	}
	id := s2.order[0]
	s2.mu.Unlock()
	b2, ok := s2.Batch(id)
	if !ok {
		t.Fatalf("recovered batch %s not addressable", id)
	}
	st, err := b2.Wait(ctx)
	if err != nil || len(st.Errors) != 0 {
		t.Fatalf("recovered batch failed: %v %v", err, st.Errors)
	}

	// Zero duplicate simulator calls for the cached point: only the two
	// evicted points re-ran.
	if got := runs2.Load(); got != 2 {
		t.Fatalf("restart re-simulated %d points, want 2", got)
	}
	// Byte-identical to the fault-free reference.
	for i := range refStatus.Results {
		if !bytes.Equal(refStatus.Results[i], st.Results[i]) {
			t.Fatalf("point %d diverged after recovery:\nref: %s\ngot: %s",
				i, refStatus.Results[i], st.Results[i])
		}
	}

	// Recovery truncated and re-journaled: a third replay sees the
	// re-admitted batch marked done, nothing pending.
	pending, err := j2.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("journal still carries pending batches after completion: %+v", pending)
	}
}

// TestSchedulerJournalsBatchLifecycle: a journaled scheduler writes a
// batch record and a batchdone record, and nothing per point; an all-hit
// batch writes nothing.
func TestSchedulerJournalsBatchLifecycle(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	s := NewScheduler(SchedulerOptions{Workers: 2, Journal: j})
	jobs := []Job{testJob("x", 32), testJob("y", 48)}
	b, err := s.Submit(jobs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := b.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// The batchdone record is written before Wait can return.
	raw, err := os.ReadFile(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"t":"batch"`)) || !bytes.Contains(raw, []byte(`"batchdone"`)) ||
		bytes.Count(raw, []byte("\n")) != 2 {
		t.Fatalf("journal should hold one batch and one batchdone record: %s", raw)
	}

	// Resubmitting the same jobs is now all hits: no new batch record.
	before, _ := os.ReadFile(filepath.Join(dir, "journal.ndjson"))
	b2, err := s.Submit(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(filepath.Join(dir, "journal.ndjson"))
	if !bytes.Equal(before, after) {
		t.Fatalf("all-hit batch appended journal records:\nbefore: %s\nafter: %s", before, after)
	}
}

// stallingFile passes writes through to a journal's file, but a write
// that carries marker first announces itself on writing and then waits
// for release.
type stallingFile struct {
	journalFile
	marker           []byte
	writing, release chan struct{}
}

func (f *stallingFile) Write(b []byte) (int, error) {
	if bytes.Contains(b, f.marker) {
		close(f.writing)
		<-f.release
	}
	return f.journalFile.Write(b)
}

// TestBatchDoneJournaledBeforeWaitReturns: a journaled batch's
// "batchdone" record is written before any waiter can see the batch
// done, so a replay right after Wait never finds the batch pending.
// While the record's write is held, the batch must not read as done.
func TestBatchDoneJournaledBeforeWaitReturns(t *testing.T) {
	j := openTestJournal(t, t.TempDir())
	f := &stallingFile{journalFile: j.f, marker: []byte(`"batchdone"`),
		writing: make(chan struct{}), release: make(chan struct{})}
	j.f = f
	s := NewScheduler(SchedulerOptions{Workers: 1, Journal: j})
	b, err := s.Submit([]Job{testJob("x", 32)})
	if err != nil {
		t.Fatal(err)
	}
	<-f.writing
	// Waiters read the state under the batch's lock: while the last
	// Complete writes the record it holds the lock, and the state has
	// not flipped.
	if b.mu.TryLock() {
		done := b.state == StateDone
		b.mu.Unlock()
		if done {
			close(f.release)
			t.Fatal("the batch reads done while its batchdone record is still unwritten")
		}
	}
	close(f.release)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := b.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	pending, err := j.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("replay after Wait found %d pending batch(es)", len(pending))
	}
}
