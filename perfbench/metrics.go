package main

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"

	"buspower/internal/experiments"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what a user of the CLI or the API sees, reported by every
// untraced run. success_rate is 1 − error_rate, where error_rate is
// (failed + wrong-output ops) / attempted ops; it is carried as a success
// share so the metric is never 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"success_rate", "ratio"},
}

// perLayer lists the traced run's metrics. Layers a workload bypasses
// report 0, which is itself the prediction: a serve-hit run does no
// simulation and no encoding.
func perLayer() []metricDef {
	defs := []metricDef{
		{"cpu.sim_ms", "ms"},
		{"cpu.insts", "count"},
		{"cpu.minst_per_s", "Minst/s"},
		{"workload.load_ms", "ms"},
		{"workload.store_ms", "ms"},
		{"workload.mem_hits", "count"},
		{"workload.mem_misses", "count"},
		{"workload.disk_hits", "count"},
		{"workload.disk_misses", "count"},
		{"workload.disk_errors", "count"},
		{"experiments.run_ms", "ms"},
	}
	for _, id := range experimentIDs() {
		defs = append(defs, metricDef{"experiments." + id + "_ms", "ms"})
	}
	return append(defs,
		metricDef{"experiments.memo_hits", "count"},
		metricDef{"experiments.memo_misses", "count"},
		metricDef{"experiments.memo_hit_ratio", "ratio"},
		metricDef{"experiments.raw_meter_misses", "count"},
		metricDef{"experiments.sliced_misses", "count"},
		metricDef{"coding.cycles", "count"},
		metricDef{"coding.mcycles_per_s", "Mcycle/s"},
		metricDef{"coding.useful_ratio", "ratio"},
		metricDef{"coding.eval_ms", "ms"},
		metricDef{"serve.handler_ms", "ms"},
		metricDef{"serve.transport_ms", "ms"},
		metricDef{"serve.parse_ms", "ms"},
		metricDef{"serve.eval_ms", "ms"},
		metricDef{"serve.marshal_ms", "ms"},
		metricDef{"serve.resp_cache_hit_ratio", "ratio"},
		metricDef{"serve.pool_rejected", "count"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.alloc_mb_per_op", "MB"},
	)
}

// experimentIDs is every registered experiment, in RunAll order.
func experimentIDs() []string {
	ids, err := experiments.ResolveIDs("all")
	if err != nil {
		panic(err) // "all" always resolves
	}
	return ids
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// validateDefs checks names and units against the result format.
func validateDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !metricName.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if !unitName.MatchString(d.Unit) {
			return fmt.Errorf("metric %s has no valid unit (%q)", d.Name, d.Unit)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// opCounts tallies a window's operations. An op is failed when it did
// not complete (transport error, non-200 status, child crash) and wrong
// when it completed with output that differs from the reference.
type opCounts struct {
	Attempted int
	Failed    int
	Wrong     int
}

func (c *opCounts) add(o opCounts) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
	c.Wrong += o.Wrong
}

// errorRate is (failed + wrong) / attempted.
func (c opCounts) errorRate() float64 {
	return ratio(float64(c.Failed+c.Wrong), float64(c.Attempted))
}

// newResult builds the result line for the given metric set. Every
// listed metric is present: values missing from vals report 0.
func newResult(c opCounts, defs []metricDef, vals map[string]float64) (result, error) {
	if err := validateDefs(defs); err != nil {
		return result{}, err
	}
	known := map[string]bool{}
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		m[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	var extra []string
	for name := range vals {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return result{}, fmt.Errorf("metrics %v are not in the catalogue", extra)
	}
	attempted := c.Attempted
	if attempted < 1 {
		attempted = 1 // the format requires at least one; a zero-op run is reported failed
		c.Failed++
	}
	return result{
		Correct:   c.Wrong == 0,
		Attempted: attempted,
		Failed:    c.Failed + c.Wrong,
		Metrics:   m,
	}, nil
}

func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
