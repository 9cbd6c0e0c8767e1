package jobs

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"time"
)

// The journal is the store's durability layer: one append-only JSONL
// file where every line is an independently checksummed record, plus a
// snapshot file written by atomic rename during compaction. The record
// stream is a redo log — replaying it over the snapshot reconstructs the
// store — and replay is idempotent, so a crash between "snapshot
// renamed" and "journal truncated" only replays records the snapshot
// already contains.
//
// Line format:
//
//	<16 lowercase hex digits of FNV-1a 64 over the payload> <payload JSON>\n
//
// Corruption handling follows the BUSTRC03 trace-container discipline:
// readers trust nothing after the first malformed line (torn tail write,
// bit-flipped checksum, merged lines) and the store truncates the file
// back to the last valid record — corruption costs the tail, never the
// process and never the records before it.

const (
	journalName  = "journal.jsonl"
	snapshotName = "snapshot.json"
)

// record is one journal entry. Type selects which fields are meaningful:
//
//	"job"      — Job: a full job at submission time
//	"item"     — ID, Index, Item: one item's durable outcome
//	"state"    — ID, State, TS: a job-level state transition
//	"snapshot" — Jobs: the whole store (snapshot file only)
type record struct {
	Type  string      `json:"type"`
	Job   *Job        `json:"job,omitempty"`
	ID    string      `json:"id,omitempty"`
	Index int         `json:"index,omitempty"`
	Item  *ItemResult `json:"item,omitempty"`
	State State       `json:"state,omitempty"`
	TS    time.Time   `json:"ts,omitempty"`
	Jobs  []*Job      `json:"jobs,omitempty"`
}

// encodeRecord renders one checksummed journal line.
func encodeRecord(rec *record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("jobs: encoding journal record: %w", err)
	}
	h := fnv.New64a()
	h.Write(payload)
	line := make([]byte, 0, len(payload)+18)
	line = fmt.Appendf(line, "%016x ", h.Sum64())
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// decodeLine parses one journal line, verifying its checksum. ok=false
// means the line (and by the append-only contract everything after it)
// cannot be trusted.
func decodeLine(line []byte) (*record, bool) {
	// "<16 hex> <payload>\n" — anything shorter cannot hold a record.
	if len(line) < 19 || line[len(line)-1] != '\n' || line[16] != ' ' {
		return nil, false
	}
	var sumBytes [8]byte
	if _, err := hex.Decode(sumBytes[:], line[:16]); err != nil {
		return nil, false
	}
	payload := line[17 : len(line)-1]
	h := fnv.New64a()
	h.Write(payload)
	var want uint64
	for _, b := range sumBytes {
		want = want<<8 | uint64(b)
	}
	if h.Sum64() != want {
		return nil, false
	}
	rec := &record{}
	if err := json.Unmarshal(payload, rec); err != nil {
		return nil, false
	}
	switch rec.Type {
	case "job", "item", "state", "snapshot":
		return rec, true
	default:
		return nil, false
	}
}

// readJournal scans checksummed records from r, calling fn for each valid
// one, and returns the byte offset just past the last valid record. The
// scan stops without error at the first malformed line — a torn tail
// write, a flipped bit, a line missing its newline — because an
// append-only log's corruption can only extend to its end; the caller
// truncates the file to the returned offset. Only I/O errors are
// returned.
func readJournal(r io.Reader, fn func(*record)) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var off int64
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			// A partial final line is a torn write: drop it.
			return off, nil
		}
		if err != nil {
			return off, err
		}
		rec, ok := decodeLine(line)
		if !ok {
			return off, nil
		}
		fn(rec)
		off += int64(len(line))
	}
}

// writeSnapshot atomically replaces the snapshot file with the given
// jobs: write to a temp file in the same directory, sync, rename. A
// crash at any point leaves either the old snapshot or the new one,
// never a torn file.
func writeSnapshot(dir string, jobsList []*Job) error {
	line, err := encodeRecord(&record{Type: "snapshot", Jobs: jobsList})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, snapshotName+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(line); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, snapshotName))
}

// readSnapshot loads the snapshot file, if a trustworthy one exists. Any
// problem — missing file, bad checksum, wrong record type — yields nil:
// the snapshot is an optimization over replaying the whole journal, so
// an untrustworthy one is simply ignored.
func readSnapshot(dir string) []*Job {
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		return nil
	}
	rec, ok := decodeLine(data)
	if !ok || rec.Type != "snapshot" {
		return nil
	}
	return rec.Jobs
}
