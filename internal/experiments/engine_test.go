package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"buspower/internal/workload"
)

func TestResolveIDs(t *testing.T) {
	all := IDs()
	// "fig15,all": fig15 first, then the rest of the registry in IDs()
	// order — "all" inside a comma list must expand, not run as a garbage
	// id, and the duplicate fig15 is dropped.
	fig15First := []string{"fig15"}
	for _, id := range all {
		if id != "fig15" {
			fig15First = append(fig15First, id)
		}
	}
	cases := []struct {
		spec string
		want []string
	}{
		{"fig15", []string{"fig15"}},
		{"fig15, table3", []string{"fig15", "table3"}},
		{"all", all},
		{"all,", all}, // trailing comma must not run a garbage id
		{"fig15,all", fig15First},
		{"fig15,fig15,fig15", []string{"fig15"}}, // duplicates dropped
	}
	for _, c := range cases {
		got, err := ResolveIDs(c.spec)
		if err != nil {
			t.Errorf("ResolveIDs(%q): %v", c.spec, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ResolveIDs(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

func TestResolveIDsRejectsUnknown(t *testing.T) {
	for _, spec := range []string{"figXX", "fig15,figXX", "fig15,bogus,table3,junk", ""} {
		if _, err := ResolveIDs(spec); err == nil {
			t.Errorf("ResolveIDs(%q) should fail", spec)
		}
	}
	// Every unknown id must be named so one run surfaces every typo.
	_, err := ResolveIDs("fig15,bogus,junk")
	if err == nil || !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), "junk") {
		t.Errorf("error should list all unknown ids, got %v", err)
	}
}

// Determinism: RunAll on a contended pool must produce tables identical,
// row for row, to the serial Run path.
func TestRunAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several experiments")
	}
	ids := []string{"table1", "fig7", "fig8", "fig16", "extvlc"}
	parallel, err := RunAll(context.Background(), quickCfg, ids, Options{Jobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		serial, err := Run(id, quickCfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := parallel[i].TSV(), serial.TSV(); got != want {
			t.Errorf("%s: parallel output differs from serial:\n--- parallel ---\n%s--- serial ---\n%s", id, got, want)
		}
	}
}

// A second full pass in one process must be served from the eval memo:
// no new misses, some hits, and tables byte-identical to the first pass.
// Zero hits here would mean the memo is broken and every warm timing of
// a rerun measures recomputation.
func TestRunAllSecondPassHitsMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	ids, err := ResolveIDs("all")
	if err != nil {
		t.Fatal(err)
	}
	first, err := RunAll(context.Background(), quickCfg, ids, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := EvalMemoStats()
	second, err := RunAll(context.Background(), quickCfg, ids, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after := EvalMemoStats()
	if after.Misses != before.Misses {
		t.Errorf("second pass added %d eval-memo misses, want 0", after.Misses-before.Misses)
	}
	if after.Hits == before.Hits {
		t.Error("second pass recorded no eval-memo hits")
	}
	for i, id := range ids {
		if got, want := second[i].TSV(), first[i].TSV(); got != want {
			t.Errorf("%s: second pass differs from first:\n--- second ---\n%s--- first ---\n%s", id, got, want)
		}
	}
}

func TestRunAllValidatesUpFront(t *testing.T) {
	// An unknown id anywhere in the list must fail before any experiment
	// runs — observable through the trace-cache counters.
	workload.ClearTraceCache()
	defer workload.ClearTraceCache()
	_, err := RunAll(context.Background(), quickCfg, []string{"fig7", "figXX"}, Options{})
	if err == nil || !strings.Contains(err.Error(), "figXX") {
		t.Fatalf("want unknown-id error, got %v", err)
	}
	if misses := workload.Stats().MemMisses; misses != 0 {
		t.Errorf("%d simulations ran before validation failed", misses)
	}
	if _, err := RunAll(context.Background(), quickCfg, nil, Options{}); err == nil {
		t.Error("empty id list should fail")
	}
}

func TestGatherRowsPropagatesError(t *testing.T) {
	for _, jobs := range []int{0, 8} {
		cfg := quickCfg
		if jobs > 0 {
			cfg.ctx = context.Background()
			cfg.eng = newEngine(jobs, nil)
		}
		tbl := &Table{Columns: []string{"i"}}
		err := gatherRows(tbl, cfg, 20, func(i int, out *Table) error {
			if i == 3 {
				return errSlot3
			}
			out.AddRow(i)
			return nil
		})
		if err != errSlot3 {
			t.Errorf("jobs=%d: err = %v, want errSlot3", jobs, err)
		}
		if len(tbl.Rows) != 0 {
			t.Errorf("jobs=%d: failed gather appended %d rows", jobs, len(tbl.Rows))
		}
	}
}

var errSlot3 = errors.New("slot 3 failed")

func TestRunAllHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunAll(ctx, quickCfg, []string{"table1"}, Options{}); err == nil {
		t.Error("pre-canceled context should abort RunAll")
	}
}

func TestRunAllProgressEvents(t *testing.T) {
	var mu sync.Mutex
	events := map[string][2]int{} // id -> {starts, finishes}
	opts := Options{Jobs: 4, Progress: func(ev ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		e := events[ev.ID]
		if ev.Done {
			e[1]++
			if ev.Err != nil {
				t.Errorf("%s: unexpected error %v", ev.ID, ev.Err)
			}
		} else {
			e[0]++
		}
		events[ev.ID] = e
	}}
	ids := []string{"table1", "fig5", "fig6"}
	if _, err := RunAll(context.Background(), quickCfg, ids, opts); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if events[id] != [2]int{1, 1} {
			t.Errorf("%s: events = %v, want one start and one finish", id, events[id])
		}
	}
}

// parFor is the engine's inner-loop primitive; its serial degradation
// (no engine attached) and its bounded parallel form must both visit
// every index exactly once.
func TestParForCoversAllIndexes(t *testing.T) {
	for _, jobs := range []int{0, 1, 3, 16} {
		cfg := quickCfg
		if jobs > 0 {
			cfg.ctx = context.Background()
			cfg.eng = newEngine(jobs, nil)
		}
		const n = 100
		visited := make([]int, n)
		var mu sync.Mutex
		err := parFor(cfg, n, func(i int) error {
			mu.Lock()
			visited[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("jobs=%d: index %d visited %d times", jobs, i, v)
			}
		}
	}
}
