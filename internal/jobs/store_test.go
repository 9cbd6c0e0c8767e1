package jobs

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSubmitDedupAndReactivation(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	items := mkItems("table3", "fig15")
	j1, created, err := s.Submit(items)
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	if j1.State != StatePending || j1.Progress.Pending != 2 {
		t.Fatalf("fresh job: %+v", j1)
	}
	if _, created, _ := s.Submit(items); created {
		t.Fatal("identical submission must coalesce, not create")
	}
	// One item succeeds, one fails, job fails.
	s.SetItemResult(j1.ID, 0, ItemResult{Status: ItemDone, Result: []byte(`1`)})
	s.SetItemResult(j1.ID, 1, ItemResult{Status: ItemFailed, Error: "boom"})
	s.SetState(j1.ID, StateFailed)

	// Resubmission re-activates: back to pending with only the failed
	// item reset; the done item's result is retained.
	j2, created, err := s.Submit(items)
	if err != nil || !created {
		t.Fatalf("re-activation: created=%v err=%v", created, err)
	}
	if j2.State != StatePending {
		t.Errorf("re-activated state = %s, want pending", j2.State)
	}
	if j2.Results[0].Status != ItemDone || string(j2.Results[0].Result) != `1` {
		t.Errorf("done item was reset: %+v", j2.Results[0])
	}
	if j2.Results[1].Status != ItemPending || j2.Results[1].Error != "" {
		t.Errorf("failed item not reset: %+v", j2.Results[1])
	}
}

func TestSubmitOrderIndependentID(t *testing.T) {
	a := JobID(mkItems("table3", "fig15"))
	b := JobID(mkItems("fig15", "table3"))
	if a == b {
		t.Fatal("distinct item orders are distinct jobs (items run positionally)")
	}
	if a != JobID(mkItems("table3", "fig15")) {
		t.Fatal("JobID not deterministic")
	}
}

func TestSubscribeStreamsAndCloses(t *testing.T) {
	s, _ := Open("")
	items := mkItems("table3")
	j, _, _ := s.Submit(items)
	ch, cancel, ok := s.Subscribe(j.ID)
	if !ok {
		t.Fatal("subscribe on live job failed")
	}
	defer cancel()

	s.SetState(j.ID, StateRunning)
	s.SetItemResult(j.ID, 0, ItemResult{Status: ItemDone, Result: []byte(`1`)})
	s.SetState(j.ID, StateDone)

	var types []string
	for ev := range ch { // closes on the terminal transition
		types = append(types, ev.Type)
	}
	want := []string{"state", "item", "state"}
	if len(types) != len(want) {
		t.Fatalf("events %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("events %v, want %v", types, want)
		}
	}

	// Subscribing to a terminal job yields an immediately closed channel.
	ch2, cancel2, ok := s.Subscribe(j.ID)
	if !ok {
		t.Fatal("subscribe on terminal job failed")
	}
	defer cancel2()
	select {
	case _, open := <-ch2:
		if open {
			t.Fatal("terminal subscription delivered an event instead of closing")
		}
	case <-time.After(time.Second):
		t.Fatal("terminal subscription channel not closed")
	}
}

func TestRunningDemotedToPendingOnReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	items := mkItems("table3", "fig15")
	j, _, _ := s.Submit(items)
	s.SetState(j.ID, StateRunning)
	s.SetItemRunning(j.ID, 0) // transient, deliberately not journaled
	s.SetItemResult(j.ID, 1, ItemResult{Status: ItemDone, Result: []byte(`2`)})
	// Crash without Close.

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Get(j.ID)
	if !ok {
		t.Fatal("job missing after reopen")
	}
	if got.State != StatePending || got.StartedAt != nil {
		t.Errorf("running job not demoted to pending: state=%s started=%v", got.State, got.StartedAt)
	}
	if got.Results[0].Status != ItemPending {
		t.Errorf("in-flight item not demoted: %+v", got.Results[0])
	}
	if got.Results[1].Status != ItemDone {
		t.Errorf("completed item lost: %+v", got.Results[1])
	}
	inc := s2.Incomplete()
	if len(inc) != 1 || inc[0].ID != j.ID {
		t.Errorf("Incomplete() = %v, want the one recovered job", inc)
	}
}

func TestCompactionPreservesEverything(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.compactBytes = 256 // force frequent compaction
	ids := []string{"table3", "fig15", "fig16", "fig17"}
	for _, id := range ids {
		j, _, err := s.Submit(mkItems(id))
		if err != nil {
			t.Fatal(err)
		}
		s.SetItemResult(j.ID, 0, ItemResult{Status: ItemDone, Result: []byte(`{"id":"` + id + `"}`)})
		s.SetState(j.ID, StateDone)
	}
	if got := s.Stats(); got.Compactions == 0 {
		t.Fatal("expected at least one compaction at a 256-byte threshold")
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.List()); got != len(ids) {
		t.Fatalf("%d jobs after reopen, want %d", got, len(ids))
	}
	for _, id := range ids {
		j, ok := s2.Get(JobID(mkItems(id)))
		if !ok || j.State != StateDone || j.Progress.Done != 1 {
			t.Errorf("job %s not intact after compaction+reopen: %+v", id, j)
		}
	}
}

// TestSnapshotWriteFailureKeepsJournal blocks the snapshot path with a
// non-empty directory, so every compaction's rename fails. The failed
// compactions must leave the journal untruncated, count nothing and
// leave no temp file, and a store reopened with the blocker still in
// place must restore every job and item state from the journal alone.
func TestSnapshotWriteFailureKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, snapshotName)
	if err := os.MkdirAll(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(blocker, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.compactBytes = 256 // every append past 256 bytes attempts a compaction
	done, _, _ := s.Submit(mkItems("table3", "fig15"))
	s.SetItemResult(done.ID, 0, ItemResult{Status: ItemDone, Result: []byte(`{"id":"table3"}`)})
	s.SetItemResult(done.ID, 1, ItemResult{Status: ItemDone, Result: []byte(`{"id":"fig15"}`)})
	s.SetState(done.ID, StateDone)
	failed, _, _ := s.Submit(mkItems("fig16", "fig17"))
	s.SetItemResult(failed.ID, 0, ItemResult{Status: ItemDone, Result: []byte(`{"id":"fig16"}`)})
	s.SetItemResult(failed.ID, 1, ItemResult{Status: ItemFailed, Error: "boom"})
	s.SetState(failed.ID, StateFailed)
	pending, _, _ := s.Submit(mkItems("fig18"))
	want := map[string]Job{}
	for _, j := range []*Job{done, failed, pending} {
		got, _ := s.Get(j.ID)
		want[j.ID] = *got
	}
	before := s.Stats()
	if before.JournalBytes < s.compactBytes {
		t.Fatalf("journal holds %d bytes, below the %d-byte compaction threshold", before.JournalBytes, s.compactBytes)
	}
	if err := s.Close(); err != nil { // Close compacts once more
		t.Fatal(err)
	}
	if after := s.Stats(); after.Compactions != 0 || before.Compactions != 0 {
		t.Errorf("compactions = %d before Close, %d after; want 0 with the snapshot path blocked",
			before.Compactions, after.Compactions)
	}
	if st, err := os.Stat(filepath.Join(dir, journalName)); err != nil || st.Size() != before.JournalBytes {
		t.Fatalf("journal truncated by a failed compaction: %v, size %v, want %d", err, st, before.JournalBytes)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, snapshotName+".tmp*")); len(tmps) != 0 {
		t.Errorf("failed snapshot writes left temp files: %v", tmps)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.List()); got != len(want) {
		t.Fatalf("%d jobs after reopen, want %d", got, len(want))
	}
	for id, w := range want {
		got, ok := s2.Get(id)
		if !ok {
			t.Fatalf("job %s lost", id)
		}
		if got.State != w.State || got.Progress != w.Progress || len(got.Results) != len(w.Results) {
			t.Fatalf("job %s: state %s progress %+v, want %s %+v", id, got.State, got.Progress, w.State, w.Progress)
		}
		for i, r := range got.Results {
			wr := w.Results[i]
			if r.Status != wr.Status || string(r.Result) != string(wr.Result) || r.Error != wr.Error {
				t.Errorf("job %s item %d: %+v, want %+v", id, i, r, wr)
			}
		}
	}
}
