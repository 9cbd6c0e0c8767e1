package report

import (
	"context"
	"math"
	"strings"
	"testing"

	"buspower/internal/experiments"
)

func TestCheckGrading(t *testing.T) {
	cases := []struct {
		c    Check
		want Verdict
	}{
		{Check{Paper: 10, Measured: 10.5, Tolerance: 0.1, TrendHolds: true}, VerdictMatch},
		{Check{Paper: 10, Measured: 15, Tolerance: 0.1, TrendHolds: true}, VerdictShape},
		{Check{Paper: 10, Measured: 15, Tolerance: 0.1, TrendHolds: false}, VerdictDiverges},
		{Check{Paper: 0, Measured: 3, TrendHolds: true}, VerdictMatch},
		{Check{Paper: 0, Measured: 3, TrendHolds: false}, VerdictDiverges},
		{Check{Paper: -5, Measured: -5.1, Tolerance: 0.05, TrendHolds: false}, VerdictMatch},
	}
	for i, c := range cases {
		if got := c.c.Grade(); got != c.want {
			t.Errorf("case %d: Grade() = %s, want %s", i, got, c.want)
		}
	}
}

// quickTables runs the report's experiments at the quick scale.
func quickTables(t *testing.T) map[string]*experiments.Table {
	t.Helper()
	ids := Experiments()
	tables, err := experiments.RunAll(context.Background(), experiments.QuickConfig(), ids, experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*experiments.Table, len(ids))
	for i, id := range ids {
		out[id] = tables[i]
	}
	return out
}

func TestBuildAndRender(t *testing.T) {
	r, err := Build(quickTables(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Checks) < 15 {
		t.Fatalf("only %d checks assembled", len(r.Checks))
	}
	diverged := 0
	for _, c := range r.Checks {
		if c.Grade() == VerdictDiverges {
			diverged++
			t.Logf("DIVERGES: %s / %s (paper %v, measured %v)", c.Artifact, c.Name, c.Paper, c.Measured)
		}
		if math.IsNaN(c.Measured) {
			t.Errorf("check %s/%s measured NaN", c.Artifact, c.Name)
		}
	}
	// The reproduction must not diverge on more than 3 checks even at the
	// quick scale (shorter traces move numbers, not trends).
	if diverged > 3 {
		t.Errorf("%d checks diverge", diverged)
	}
	md := r.Markdown()
	for _, want := range []string{
		"# Reproduction self-check",
		"| artifact |",
		"table1", "table2", "table3", "fig15", "fig19", "fig23",
		"Summary:",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// Table 1 is solved from the anchors: all six Λ checks must MATCH.
	for _, c := range r.Checks {
		if c.Artifact == "table1" && c.Grade() != VerdictMatch {
			t.Errorf("table1 check %q did not MATCH (measured %v)", c.Name, c.Measured)
		}
	}
}

// TestBuildNeedsEveryTable checks that a run missing one of the graded
// tables is an error naming it, not a report with checks left out.
func TestBuildNeedsEveryTable(t *testing.T) {
	tables := quickTables(t)
	delete(tables, "fig19")
	if _, err := Build(tables); err == nil || !strings.Contains(err.Error(), "fig19") {
		t.Fatalf("Build without fig19: err = %v, want one naming fig19", err)
	}
}
