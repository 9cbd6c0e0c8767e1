package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"buspower/internal/bus"
	"buspower/internal/experiments"
)

// goldens maps each experiment id to its committed full-mode table,
// results/<id>.tsv.
type goldens map[string][]byte

func loadGoldens(root string) (goldens, error) {
	g := goldens{}
	for _, id := range experimentIDs() {
		data, err := os.ReadFile(filepath.Join(root, "results", id+".tsv"))
		if err != nil {
			return nil, fmt.Errorf("reference tables: %w", err)
		}
		g[id] = data
	}
	return g, nil
}

// checkTables compares one pass's tables with the references and returns
// the ids that differ or are missing. A pass with any such id counts as
// one wrong op.
func (g goldens) checkTables(tables map[string]string) []string {
	var bad []string
	for _, id := range experimentIDs() {
		got, ok := tables[id]
		if !ok || !bytes.Equal([]byte(got), g[id]) {
			bad = append(bad, id)
		}
	}
	return bad
}

// rawStats is what a correct /v1/eval response reports for the raw bus
// of a workload trace: the trace's meter as coding.MeasureRawValues
// measures it, read at the request's Λ.
func rawStats(m *bus.Meter, lambda float64) experiments.BusStats {
	return experiments.BusStats{
		Width:        m.Width(),
		Cycles:       m.Cycles(),
		Transitions:  m.Transitions(),
		Couplings:    m.Couplings(),
		Cost:         m.Cost(lambda),
		CostPerCycle: m.CostPerCycle(lambda),
	}
}

// checkMissResponse verifies a serve-miss answer: status 200 and raw-bus
// statistics equal to the set-up's own metering of the trace.
func checkMissResponse(status int, body []byte, want experiments.BusStats) error {
	if status != 200 {
		return fmt.Errorf("status %d", status)
	}
	var resp experiments.EvalResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if resp.Raw != want {
		return fmt.Errorf("raw stats %+v, want %+v", resp.Raw, want)
	}
	return nil
}

// sameEvaluation reports whether two responses describe the same
// evaluation result, ignoring the verification policy they ran under.
func sameEvaluation(a, b []byte) (bool, error) {
	var ra, rb experiments.EvalResponse
	if err := json.Unmarshal(a, &ra); err != nil {
		return false, err
	}
	if err := json.Unmarshal(b, &rb); err != nil {
		return false, err
	}
	ra.Verify, rb.Verify = "", ""
	return ra == rb, nil
}
