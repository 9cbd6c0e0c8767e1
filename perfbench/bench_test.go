package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"buspower/internal/coding"
	"buspower/internal/experiments"
	"buspower/internal/workload"
)

// A percentile above the median is reported only with at least ten
// samples beyond it; the median always is.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{1, 0.5, true, 1}, {4, 0.5, true, 2.5}, {99, 0.9, false, 0}, {100, 0.9, true, 90},
		{999, 0.99, false, 0}, {1000, 0.99, true, 990}, {0, 0.5, false, 0},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

// A corrupted table is caught by the checker and a wrong op counts in
// the error rate and the result line.
func TestCorruptTableCountsInErrorRate(t *testing.T) {
	g, err := loadGoldens("..")
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]string{}
	for id, data := range g {
		tables[id] = string(data)
	}
	if bad := g.checkTables(tables); len(bad) != 0 {
		t.Fatalf("reference tables reported as different: %v", bad)
	}
	tables["fig22"] = strings.Replace(tables["fig22"], "\t", "\t1", 1)
	delete(tables, "table3")
	if bad := g.checkTables(tables); len(bad) != 2 {
		t.Errorf("altered tables: checker reported %v, want fig22 and table3", bad)
	}
	ws := windowStats{latencies: []time.Duration{time.Second, time.Second}, counts: opCounts{Attempted: 2, Wrong: 1}, elapsed: 2 * time.Second}
	if got := endToEndValues(ws, 1)["success_rate"]; got != 0.5 {
		t.Errorf("success_rate = %g, want 0.5", got)
	}
	res, err := newResult(ws.counts, endToEnd, endToEndValues(ws, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("result %+v: want correct=false, failed=1", res)
	}
}

func TestAlteredResponseIsCaught(t *testing.T) {
	tr := workload.RandomTrace(500, 7)
	want := rawStats(coding.MeasureRawValues(32, tr), 1)
	resp, err := experiments.EvaluateRequest(context.Background(), experiments.EvalRequest{Values: tr, Scheme: "window:entries=8"})
	if err != nil {
		t.Fatal(err)
	}
	good, _ := json.Marshal(resp)
	if err := checkMissResponse(http.StatusOK, good, want); err != nil {
		t.Errorf("correct response rejected: %v", err)
	}
	resp.Raw.Transitions++
	bad, _ := json.Marshal(resp)
	if checkMissResponse(http.StatusOK, bad, want) == nil {
		t.Error("altered raw stats accepted")
	}
	if checkMissResponse(http.StatusServiceUnavailable, good, want) == nil {
		t.Error("503 accepted")
	}
	if same, err := sameEvaluation(good, bad); err != nil || same {
		t.Errorf("sameEvaluation(good, altered) = %v, %v; want false", same, err)
	}
}

// Every metric name and unit fits the result format, and BENCHMARK.json
// lists exactly the benchmark's workloads and metrics.
func TestMetricCatalogue(t *testing.T) {
	if err := validateDefs(endToEnd); err != nil {
		t.Error(err)
	}
	if err := validateDefs(perLayer()); err != nil {
		t.Error(err)
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got, want []metricDef
	}{{bench.EndToEnd, endToEnd}, {bench.PerLayer, perLayer()}} {
		if len(c.got) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("BENCHMARK.json metric %+v, the benchmark reports %+v", c.got[i], c.want[i])
			}
		}
	}
	for _, w := range bench.Workloads {
		if _, err := newBenchmark(w.Name, "..", t.TempDir(), 1); err != nil {
			t.Error(err)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "regen.pass", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "cpu.sim/li", Start: 1 * ms, End: 5 * ms},
		{ID: 3, Parent: 1, Name: "experiments.run", Start: 5 * ms, End: 9 * ms},
		{ID: 4, Parent: 3, Name: "experiments.exp/a", Start: 5 * ms, End: 9 * ms},
		{ID: 5, Parent: 3, Name: "experiments.exp/b", Start: 5 * ms, End: 8 * ms},
	}
	got := map[string]float64{}
	for _, l := range selfTimes(spans) {
		got[l.Layer] = l.SelfMS
	}
	// experiments.run's overlapping children clamp its own self time to 0.
	for layer, want := range map[string]float64{"regen": 2, "cpu": 4, "experiments": 7} {
		if got[layer] != want {
			t.Errorf("%s self time %g ms, want %g", layer, got[layer], want)
		}
	}
}
