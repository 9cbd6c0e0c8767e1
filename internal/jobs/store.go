package jobs

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Event is one progress notification delivered to SSE subscribers:
// either a job-level state transition or one item's completion.
type Event struct {
	// Type is "state" or "item".
	Type  string `json:"type"`
	JobID string `json:"job_id"`
	// State is the job's state after the event.
	State State `json:"state"`
	// Index and Item carry the item outcome ("item" events).
	Index int         `json:"index,omitempty"`
	Item  *ItemResult `json:"item,omitempty"`
	// Progress is the job's counts after the event.
	Progress Progress `json:"progress"`
}

// StoreStats is a point-in-time snapshot of the store for /metrics.
type StoreStats struct {
	// JobsByState counts the resident jobs per lifecycle state.
	JobsByState map[State]int
	// JournalBytes is the journal file's current size (0 when the store
	// is memory-only).
	JournalBytes int64
	// Compactions counts snapshot compactions performed.
	Compactions uint64
	// RecoveredBytes counts journal bytes discarded by corruption
	// recovery at Open.
	RecoveredBytes int64
}

// Store holds every job in memory and mirrors the durable parts —
// submissions, item outcomes, state transitions — into the journal. All
// methods are safe for concurrent use. With an empty dir the store is
// memory-only (no journal, no snapshot): same semantics, no durability.
type Store struct {
	mu   sync.Mutex
	dir  string
	jobs map[string]*Job
	// order preserves submission order for List.
	order []string

	journal      *os.File
	journalBytes int64
	// compactBytes is the journal size that triggers snapshot compaction.
	compactBytes int64
	compactions  uint64
	recovered    int64

	subs map[string][]chan Event

	// now is injectable for tests.
	now func() time.Time
}

// defaultCompactBytes keeps the journal a few flushes long: full-suite
// jobs journal tables of a few hundred KiB, so compaction every ~8 MiB
// bounds replay time without rewriting the snapshot on every item.
const defaultCompactBytes = 8 << 20

// Open loads (or creates) the job store rooted at dir, recovering from
// any corrupt journal tail by truncating back to the last valid record.
// An empty dir yields a memory-only store.
func Open(dir string) (*Store, error) {
	s := &Store{
		jobs:         map[string]*Job{},
		subs:         map[string][]chan Event{},
		compactBytes: defaultCompactBytes,
		now:          time.Now,
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: store dir: %w", err)
	}
	s.dir = dir
	// Snapshot first (it may be absent or stale), then the journal on
	// top: records the snapshot already contains replay as no-ops.
	for _, j := range readSnapshot(dir) {
		s.apply(&record{Type: "job", Job: j})
	}
	path := filepath.Join(dir, journalName)
	if f, err := os.Open(path); err == nil {
		valid, rerr := readJournal(f, s.apply)
		size, _ := f.Seek(0, 2)
		f.Close()
		if rerr != nil {
			return nil, fmt.Errorf("jobs: reading journal: %w", rerr)
		}
		if valid < size {
			// Corrupt tail: drop it, keep everything before.
			s.recovered = size - valid
			if err := os.Truncate(path, valid); err != nil {
				return nil, fmt.Errorf("jobs: truncating corrupt journal tail: %w", err)
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("jobs: opening journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: opening journal for append: %w", err)
	}
	s.journal = f
	if st, err := f.Stat(); err == nil {
		s.journalBytes = st.Size()
	}
	// A crash mid-run left jobs running and items started-but-unfinished;
	// demote both to pending so the engine re-enqueues exactly the
	// incomplete work (completed item results are durable and kept).
	for _, j := range s.jobs {
		s.normalizeRecovered(j)
	}
	return s, nil
}

// normalizeRecovered resets transient in-flight markers after a restart.
func (s *Store) normalizeRecovered(j *Job) {
	for i := range j.Results {
		if j.Results[i].Status == ItemRunning {
			j.Results[i].Status = ItemPending
		}
	}
	if j.State == StateRunning {
		j.State = StatePending
		j.StartedAt = nil
	}
	j.recount()
}

// apply replays one journal record into memory. It must stay idempotent:
// compaction can leave the journal holding records the snapshot already
// reflects, and replaying them twice must be harmless.
func (s *Store) apply(rec *record) {
	switch rec.Type {
	case "job":
		if rec.Job == nil || rec.Job.ID == "" {
			return
		}
		if _, exists := s.jobs[rec.Job.ID]; exists {
			return
		}
		j := rec.Job.clone()
		if len(j.Results) != len(j.Items) {
			// A foreign or hand-edited record; normalize rather than crash.
			j.Results = make([]ItemResult, len(j.Items))
			for i := range j.Results {
				j.Results[i].Status = ItemPending
			}
		}
		j.recount()
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	case "item":
		j, ok := s.jobs[rec.ID]
		if !ok || rec.Item == nil || rec.Index < 0 || rec.Index >= len(j.Results) {
			return
		}
		j.Results[rec.Index] = *rec.Item
		j.recount()
	case "state":
		j, ok := s.jobs[rec.ID]
		if !ok {
			return
		}
		s.applyState(j, rec.State, rec.TS)
	}
}

// applyState performs one job-level transition. Re-activation (a failed
// or cancelled job resubmitted) transitions back to pending and resets
// every non-done item so only the incomplete work re-runs.
func (s *Store) applyState(j *Job, st State, ts time.Time) {
	switch st {
	case StatePending:
		for i := range j.Results {
			if j.Results[i].Status != ItemDone {
				j.Results[i] = ItemResult{Status: ItemPending}
			}
		}
		j.State = StatePending
		j.StartedAt = nil
		j.FinishedAt = nil
	case StateRunning:
		j.State = StateRunning
		if j.StartedAt == nil {
			t := ts
			j.StartedAt = &t
		}
	case StateDone, StateFailed, StateCancelled:
		j.State = st
		if j.FinishedAt == nil {
			t := ts
			j.FinishedAt = &t
		}
	}
	j.recount()
}

// append journals one record. Memory is the source of truth while the
// process lives, but it must never claim more than the journal holds: a
// caller whose append failed records an outcome that is not done (see
// SetItemResult and SetState). A partly written record is cut off again
// when the file allows it, so later appends stay readable. Called under
// mu.
func (s *Store) append(rec *record) error {
	if s.journal == nil {
		return nil
	}
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	n, err := s.journal.Write(line)
	if err != nil {
		if n > 0 && s.journal.Truncate(s.journalBytes) == nil {
			n = 0
		}
		s.journalBytes += int64(n)
		return fmt.Errorf("jobs: journal append: %w", err)
	}
	s.journalBytes += int64(n)
	if s.journalBytes >= s.compactBytes {
		s.compactLocked()
	}
	return nil
}

// compactLocked folds the journal into a freshly renamed snapshot and
// truncates the journal. Failure leaves the journal as-is (longer, but
// still correct). Called under mu.
func (s *Store) compactLocked() {
	if s.journal == nil {
		return
	}
	if err := s.journal.Sync(); err != nil {
		return
	}
	all := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		all = append(all, s.jobs[id])
	}
	if err := writeSnapshot(s.dir, all); err != nil {
		return
	}
	// The snapshot is durable; the journal's records are now redundant
	// (replay is idempotent if we crash before this truncate completes).
	if err := s.journal.Truncate(0); err != nil {
		return
	}
	if _, err := s.journal.Seek(0, 0); err == nil {
		s.journalBytes = 0
		s.compactions++
	}
}

// Submit creates (and journals) a job for the canonical items, or
// returns the existing job with the same content address. A terminal
// failed/cancelled job is re-activated: its non-done items reset to
// pending so only incomplete work re-runs. The bool reports whether any
// new work was scheduled (a fresh job or a re-activation).
func (s *Store) Submit(items []Item) (*Job, bool, error) {
	id := JobID(items)
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		switch j.State {
		case StateFailed, StateCancelled:
			rec := &record{Type: "state", ID: id, State: StatePending, TS: s.now().UTC()}
			if err := s.append(rec); err != nil {
				return nil, false, err
			}
			s.applyState(j, StatePending, rec.TS)
			s.publish(j, Event{Type: "state", JobID: id, State: j.State, Progress: j.Progress})
			return j.clone(), true, nil
		default:
			return j.clone(), false, nil
		}
	}
	j := &Job{
		ID:        id,
		State:     StatePending,
		CreatedAt: s.now().UTC(),
		Items:     append([]Item(nil), items...),
		Results:   make([]ItemResult, len(items)),
	}
	for i := range j.Results {
		j.Results[i].Status = ItemPending
	}
	j.recount()
	if err := s.append(&record{Type: "job", Job: j}); err != nil {
		return nil, false, err
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j.clone(), true, nil
}

// Get returns a deep copy of the job.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.clone(), true
}

// List returns deep copies of every job in submission order.
func (s *Store) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].clone())
	}
	return out
}

// SetItemRunning marks one item in-flight. Transient — not journaled (a
// restart demotes running items to pending anyway) but published to
// subscribers for live progress.
func (s *Store) SetItemRunning(id string, index int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || index < 0 || index >= len(j.Results) || j.Results[index].Status != ItemPending {
		return
	}
	j.Results[index].Status = ItemRunning
	j.recount()
	res := j.Results[index]
	s.publish(j, Event{Type: "item", JobID: id, State: j.State, Index: index, Item: &res, Progress: j.Progress})
}

// SetItemResult records (and journals) one item's durable outcome. If the
// journal append fails, the item ends failed with the journal error
// instead — an outcome that is not durable is never reported done — and
// that failure is journaled if the journal takes it; if not, a reopened
// store finds the item pending and runs it again.
func (s *Store) SetItemResult(id string, index int, res ItemResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || index < 0 || index >= len(j.Results) {
		return fmt.Errorf("jobs: no item %d in job %s", index, id)
	}
	err := s.append(&record{Type: "item", ID: id, Index: index, Item: &res})
	if err != nil {
		res = ItemResult{Status: ItemFailed, Error: err.Error(), ElapsedMS: res.ElapsedMS}
		// Best effort: if this append fails too, the item is simply absent
		// from the journal, which reads as pending on reopen.
		_ = s.append(&record{Type: "item", ID: id, Index: index, Item: &res})
	}
	j.Results[index] = res
	j.recount()
	s.publish(j, Event{Type: "item", JobID: id, State: j.State, Index: index, Item: &res, Progress: j.Progress})
	return err
}

// SetState records (and journals) a job-level transition, publishing it
// to subscribers. Terminal transitions close every subscriber channel:
// the SSE layer re-reads the final job and ends the stream. A transition
// to done whose journal append fails ends the job failed instead: the job
// is not reported done while the journal does not say so.
func (s *Store) SetState(id string, st State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("jobs: unknown job %s", id)
	}
	if j.State == st || (j.State.Terminal() && !st.Terminal()) {
		return nil
	}
	rec := &record{Type: "state", ID: id, State: st, TS: s.now().UTC()}
	err := s.append(rec)
	if err != nil && st == StateDone {
		rec.State = StateFailed
		// Best effort, as in SetItemResult: a lost state record is
		// re-derived from the item records on reopen.
		_ = s.append(rec)
	}
	s.applyState(j, rec.State, rec.TS)
	s.publish(j, Event{Type: "state", JobID: id, State: j.State, Progress: j.Progress})
	return err
}

// Subscribe registers a progress-event channel for the job. The channel
// is buffered; a subscriber that falls far behind loses intermediate
// events but never the terminal close. The returned cancel is idempotent
// and must be called when the subscriber goes away.
func (s *Store) Subscribe(id string) (<-chan Event, func(), bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, false
	}
	ch := make(chan Event, 64)
	if j.State.Terminal() {
		// Nothing further will happen; hand back an already-closed channel
		// so the subscriber immediately renders the final state.
		close(ch)
		return ch, func() {}, true
	}
	s.subs[id] = append(s.subs[id], ch)
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		list := s.subs[id]
		for i, c := range list {
			if c == ch {
				s.subs[id] = append(list[:i], list[i+1:]...)
				close(c)
				break
			}
		}
	}
	return ch, cancel, true
}

// publish fans an event out to the job's subscribers (non-blocking: a
// full buffer drops the event) and closes the channels on terminal
// states. Called under mu.
func (s *Store) publish(j *Job, ev Event) {
	for _, ch := range s.subs[j.ID] {
		select {
		case ch <- ev:
		default:
		}
	}
	if j.State.Terminal() {
		for _, ch := range s.subs[j.ID] {
			close(ch)
		}
		delete(s.subs, j.ID)
	}
}

// Incomplete returns the jobs (in submission order) that still have work
// to do, for the engine to resume after a restart.
func (s *Store) Incomplete() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for _, id := range s.order {
		if j := s.jobs[id]; !j.State.Terminal() {
			out = append(out, j.clone())
		}
	}
	return out
}

// Stats snapshots the store for /metrics.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		JobsByState:    map[State]int{},
		JournalBytes:   s.journalBytes,
		Compactions:    s.compactions,
		RecoveredBytes: s.recovered,
	}
	for _, j := range s.jobs {
		st.JobsByState[j.State]++
	}
	return st
}

// Close compacts into a final snapshot and closes the journal. The store
// must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	s.compactLocked()
	err := s.journal.Close()
	s.journal = nil
	return err
}
