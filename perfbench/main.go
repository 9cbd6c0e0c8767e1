// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed time and prints, as its last stdout line, a JSON
// result with every end-to-end metric (or, with --trace 1, every
// per-layer metric). See README.md in this directory.
//
//	perfbench --workload regen-cold --seed 1 --seconds 25 --trace 0
//
// Workloads: regen-cold, regen-disk, serve-miss, serve-hit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// windowStats is one timed window's outcome.
type windowStats struct {
	latencies []time.Duration
	counts    opCounts
	elapsed   time.Duration
	peakRSSMB float64
}

// benchmark is one workload's driver.
type benchmark interface {
	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats() int
	// setup prepares the i-th set-up; the last one is what windows use.
	setup(i int, rec *recorder, parent int64) error
	// warmup runs unmeasured ops between set-up and the first window;
	// their checked counts join the result.
	warmup() (opCounts, error)
	// window measures ops for about d.
	window(d time.Duration, rec *recorder) (windowStats, error)
	// layers reports the per-layer metrics of the last window; it may do
	// extra checked work, returned as extra ops.
	layers(ws windowStats, rec *recorder) (map[string]float64, opCounts, error)
	// close stops everything the benchmark started.
	close()
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "regen-cold, regen-disk, serve-miss or serve-hit")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 0, "measured time (required; BENCHMARK.json run_seconds)")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced window")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds %d: want at least 1 (the flag is required)", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func newBenchmark(name, root, work string, seed int64) (benchmark, error) {
	switch name {
	case "regen-cold":
		return newRegenBench(root, work, false), nil
	case "regen-disk":
		return newRegenBench(root, work, true), nil
	case "serve-miss":
		return newServeBench(false, seed), nil
	case "serve-hit":
		return newServeBench(true, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want regen-cold, regen-disk, serve-miss or serve-hit)", name)
}

func run(args []string) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	out := filepath.Join(root, ".bench_build", "perfbench")
	work := filepath.Join(out, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	b, err := newBenchmark(o.workload, root, work, o.seed)
	if err != nil {
		return err
	}
	defer b.close()

	mc := newMachineContext(root, o)
	if err := writeJSONLine(os.Stdout, map[string]any{"context": mc}); err != nil {
		return err
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder(0)
	}

	var setups []float64
	for i := 0; i < b.setupRepeats(); i++ {
		id, t0 := rec.newID(), time.Now()
		if err := b.setup(i, rec, id); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		t1 := time.Now()
		rec.add(id, 0, 0, "bench.setup", t0, t1)
		setups = append(setups, t1.Sub(t0).Seconds())
	}
	setupS := median(setups)
	// Windows start from a collected heap with the set-ups' garbage handed
	// back to the OS, so peak_rss_mb measures the windows.
	debug.FreeOSMemory()
	warm, err := b.warmup()
	if err != nil {
		return err
	}

	d := time.Duration(o.seconds) * time.Second
	if !o.trace {
		ws, err := b.window(d, nil)
		if err != nil {
			return err
		}
		e2e := endToEndValues(ws, setupS)
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", o.workload, o.seed, summary(ws, e2e))
		warm.add(ws.counts)
		res, err := newResult(warm, endToEnd, e2e)
		if err != nil {
			return err
		}
		return writeJSONLine(os.Stdout, res)
	}

	// Traced run: an untraced and a traced half-window on the same set-up
	// and seed, so the tracing overhead is measured, not assumed.
	plain, err := b.window(d/2, nil)
	if err != nil {
		return err
	}
	traced, err := b.window(d/2, rec)
	if err != nil {
		return err
	}
	layers, extra, err := b.layers(traced, rec)
	if err != nil {
		return err
	}
	counts := warm
	counts.add(plain.counts)
	counts.add(traced.counts)
	counts.add(extra)
	dir := filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	overhead := overheadLine(endToEndValues(plain, setupS), endToEndValues(traced, setupS))
	if err := writeTrace(dir, mc, rec, overhead); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced: %s\nperfbench: %s\nperfbench: spans, layer self times and overhead in %s\n",
		o.workload, o.seed, summary(traced, endToEndValues(traced, setupS)), overhead, dir)
	res, err := newResult(counts, perLayer(), layers)
	if err != nil {
		return err
	}
	return writeJSONLine(os.Stdout, res)
}

// endToEndValues computes the end-to-end metrics of one window.
func endToEndValues(ws windowStats, setupS float64) map[string]float64 {
	ok := ws.counts.Attempted - ws.counts.Failed - ws.counts.Wrong
	return map[string]float64{
		"setup_s":      setupS,
		"p50_ms":       median(durationsMS(ws.latencies)),
		"ops_per_s":    ratio(float64(ok), ws.elapsed.Seconds()),
		"peak_rss_mb":  ws.peakRSSMB,
		"success_rate": 1 - ws.counts.errorRate(),
	}
}

// summary is the human-readable line: the end-to-end metrics plus the
// serve tail and the raw error rate, which the result line does not carry.
func summary(ws windowStats, e2e map[string]float64) string {
	var parts []string
	for _, d := range endToEnd {
		parts = append(parts, fmt.Sprintf("%s=%.4g %s", d.Name, e2e[d.Name], d.Unit))
	}
	lat := durationsMS(ws.latencies)
	for _, p := range []float64{0.9, 0.99} {
		if v, ok := percentile(lat, p); ok {
			parts = append(parts, fmt.Sprintf("p%g_ms=%.4g ms", p*100, v))
		}
	}
	parts = append(parts, fmt.Sprintf("error_rate=%g ops=%d", ws.counts.errorRate(), ws.counts.Attempted))
	return strings.Join(parts, " ")
}

// overheadLine compares the untraced and traced halves of a traced run.
func overheadLine(plain, traced map[string]float64) string {
	var parts []string
	for _, d := range endToEnd {
		if d.Name == "setup_s" {
			continue
		}
		p, t := plain[d.Name], traced[d.Name]
		parts = append(parts, fmt.Sprintf("%s untraced %.4g traced %.4g (%+.1f%%)", d.Name, p, t, 100*ratio(t-p, p)))
	}
	return "tracing overhead: " + strings.Join(parts, "; ")
}

// writeTrace writes the traced run's spans, per-layer self times and
// overhead line into dir.
func writeTrace(dir string, mc machineContext, rec *recorder, overhead string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans, dropped := rec.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Create(filepath.Join(dir, "layers.tsv"))
	if err != nil {
		return err
	}
	if err := writeSelfTimes(f, selfTimes(spans), dropped); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	stamp, err := json.Marshal(mc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "overhead.txt"), append(stamp, "\n"+overhead+"\n"...), 0o644)
}
