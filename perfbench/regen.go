package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"buspower/internal/coding"
	"buspower/internal/experiments"
	"buspower/internal/workload"
)

// The regen workloads time one `-exp all` pass per op. Every pass runs in
// a fresh child process of the benchmark, as a CLI invocation does: the
// trace cache, the eval memos and the raw-meter and random-trace memos
// (which have no exported reset) all start empty, so every pass does the
// same work. The per-pass experiments.raw_meter_misses count shows it.

// passReport is what a child process reports on stdout.
type passReport struct {
	Tables   map[string]string     `json:"tables,omitempty"`
	TracesMS float64               `json:"traces_ms"` // Σ per-workload Traces calls
	SimMS    float64               `json:"sim_ms"`    // "store" step: Σ plain simulations
	StoreMS  float64               `json:"store_ms"`  // "store" step: Σ Traces − simulation
	Insts    uint64                `json:"insts"`
	RunMS    float64               `json:"run_ms"`
	ExpMS    map[string]float64    `json:"exp_ms,omitempty"`
	Memo     experiments.MemoStats `json:"memo"`
	RawMeter experiments.MemoStats `json:"raw_meter"`
	Sliced   experiments.MemoStats `json:"sliced"`
	Workload workload.CacheStats   `json:"workload"`
	Cycles   uint64                `json:"cycles"`
	GCCycles uint32                `json:"gc_cycles"`
	GCPause  float64               `json:"gc_pause_ms"`
	AllocMB  float64               `json:"alloc_mb"`
	Spans    []span                `json:"spans,omitempty"`
	Err      string                `json:"err,omitempty"`
}

// childMain runs one child-process step and prints its passReport. The
// steps are "pass" (load traces, then RunAll), "traces" (load every
// workload's traces: simulation alone with the disk cache off, simulation
// and store into a fresh disk trace cache with -dir) and "store" (time the
// disk layer's store, into -dir).
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	step := fs.String("step", "", "pass, traces or store")
	dir := fs.String("dir", "", "disk trace cache directory (empty: disk cache off)")
	jobs := fs.Int("jobs", 1, "RunAll workers and trace loaders")
	traced := fs.Bool("trace", false, "record spans")
	spanBase := fs.Int64("span-base", 0, "first span id")
	spanParent := fs.Int64("span-parent", 0, "parent span id")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var rec *recorder
	if *traced {
		rec = newRecorder(*spanBase)
	}
	var rep passReport
	var err error
	switch *step {
	case "pass":
		rep, err = childPass(*dir, *jobs, rec, *spanParent)
	case "traces":
		rep, err = childTraces(*dir, *jobs, rec, *spanParent)
	case "store":
		rep, err = childStore(*dir, rec, *spanParent)
	default:
		err = fmt.Errorf("unknown child step %q", *step)
	}
	if err != nil {
		rep.Err = err.Error()
	}
	rep.Spans, _ = rec.snapshot()
	if werr := writeJSONLine(os.Stdout, rep); werr != nil || err != nil {
		return 1
	}
	return 0
}

// loadTraces fetches every workload's traces through workload.Traces on
// jobs goroutines, one span per workload named prefix+"/"+workload.
func loadTraces(rec *recorder, parent int64, jobs int, prefix string) (totalMS float64, insts uint64, err error) {
	names := workload.Names()
	durs := make([]time.Duration, len(names))
	ins := make([]uint64, len(names))
	errs := make([]error, len(names))
	next := make(chan int, len(names))
	for i := range names {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < max(1, jobs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				ts, err := workload.Traces(names[i], experiments.DefaultConfig().Run)
				t1 := time.Now()
				rec.record(parent, 0, prefix+"/"+names[i], t0, t1)
				durs[i], ins[i], errs[i] = t1.Sub(t0), ts.Summary.Instructions, err
			}
		}()
	}
	wg.Wait()
	for i := range names {
		if errs[i] != nil {
			return 0, 0, errs[i]
		}
		totalMS += msOf(durs[i])
		insts += ins[i]
	}
	return totalMS, insts, nil
}

func childPass(dir string, jobs int, rec *recorder, parent int64) (passReport, error) {
	var rep passReport
	prefix := "cpu.sim"
	if dir != "" {
		prefix = "workload.load"
		if _, err := workload.SetTraceCacheDir(dir); err != nil {
			return rep, err
		}
	}
	policy, err := coding.ParseVerifyPolicy("sampled") // the CLI default
	if err != nil {
		return rep, err
	}
	cfg := experiments.DefaultConfig()
	cfg.Verify = policy
	ids := experimentIDs()

	tracesID, t0 := rec.newID(), time.Now()
	rep.TracesMS, rep.Insts, err = loadTraces(rec, tracesID, jobs, prefix)
	rec.add(tracesID, parent, 0, "workload.traces", t0, time.Now())
	if err != nil {
		return rep, err
	}

	runID := rec.newID()
	rep.ExpMS = map[string]float64{}
	started := map[string]time.Time{}
	opts := experiments.Options{Jobs: jobs, Progress: func(ev experiments.ProgressEvent) {
		if !ev.Done {
			started[ev.ID] = time.Now()
			return
		}
		rep.ExpMS[ev.ID] = msOf(ev.Elapsed)
		rec.record(runID, 0, "experiments.exp/"+ev.ID, started[ev.ID], time.Now())
	}}
	r0 := time.Now()
	tables, err := experiments.RunAll(context.Background(), cfg, ids, opts)
	r1 := time.Now()
	rec.add(runID, parent, 0, "experiments.run", r0, r1)
	if err != nil {
		return rep, err
	}
	rep.RunMS = msOf(r1.Sub(r0))
	rep.Tables = make(map[string]string, len(tables))
	for i, t := range tables {
		rep.Tables[ids[i]] = t.TSV()
	}
	rep.Memo = experiments.EvalMemoStats()
	rep.RawMeter = experiments.RawMeterMemoStats()
	rep.Sliced = experiments.SlicedCacheStats()
	rep.Workload = workload.Stats()
	rep.Cycles = coding.EvaluatedCycles()
	fillRuntime(&rep)
	return rep, nil
}

func childTraces(dir string, jobs int, rec *recorder, parent int64) (passReport, error) {
	var rep passReport
	prefix := "cpu.sim"
	if dir != "" {
		prefix = "workload.populate"
		if _, err := workload.SetTraceCacheDir(dir); err != nil {
			return rep, err
		}
	}
	var err error
	rep.TracesMS, rep.Insts, err = loadTraces(rec, parent, jobs, prefix)
	rep.Workload = workload.Stats()
	fillRuntime(&rep)
	return rep, err
}

// childStore times the store inside workload.Traces, which has no timing
// of its own. For each workload, storeTimings times over, it times a
// plain simulation (workload.Run) and then a Traces call that simulates
// and stores into the empty cache dir; the store is the difference of the
// two minima. It runs serially: each Traces call needs an empty memory
// cache and an empty dir.
func childStore(dir string, rec *recorder, parent int64) (passReport, error) {
	var rep passReport
	if _, err := workload.SetTraceCacheDir(dir); err != nil {
		return rep, err
	}
	cfg := experiments.DefaultConfig().Run
	for _, w := range workload.All() {
		// The first simulation of a workload in a process is slower (heap
		// growth, first-touch faults), so it is left untimed.
		if _, err := workload.Run(w, cfg); err != nil {
			return rep, err
		}
		var sim, both time.Duration
		for k := 0; k < storeTimings; k++ {
			workload.ClearTraceCache()
			if err := emptyDir(dir); err != nil {
				return rep, err
			}
			t0 := time.Now()
			if _, err := workload.Run(w, cfg); err != nil {
				return rep, err
			}
			t1 := time.Now()
			if _, err := workload.Traces(w.Name, cfg); err != nil {
				return rep, err
			}
			t2 := time.Now()
			if st := workload.Stats(); st.DiskMisses != 1 || st.DiskErrors != 0 {
				return rep, fmt.Errorf("store %s: %d disk misses, %d errors; want 1 miss, 0 errors", w.Name, st.DiskMisses, st.DiskErrors)
			}
			rec.record(parent, 0, "cpu.sim/"+w.Name, t0, t1)
			rec.record(parent, 0, "workload.populate/"+w.Name, t1, t2)
			if k == 0 || t1.Sub(t0) < sim {
				sim = t1.Sub(t0)
			}
			if k == 0 || t2.Sub(t1) < both {
				both = t2.Sub(t1)
			}
		}
		rep.SimMS += msOf(sim)
		rep.StoreMS += msOf(both - sim)
	}
	return rep, nil
}

// storeTimings is how many simulate/store pairs childStore times per
// workload.
const storeTimings = 3

func emptyDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func fillRuntime(rep *passReport) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.GCCycles = ms.NumGC
	rep.GCPause = float64(ms.PauseTotalNs) / 1e6
	rep.AllocMB = float64(ms.TotalAlloc) / (1 << 20)
}

// childRun is one finished child process.
type childRun struct {
	rep   passReport
	wall  time.Duration
	rssMB float64
}

// runChild starts the benchmark binary in child mode and waits for it.
func runChild(args ...string) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, append([]string{"child"}, args...)...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	runErr := cmd.Run()
	cr := childRun{wall: time.Since(t0), rssMB: childRSSMB(cmd.ProcessState)}
	if err := json.Unmarshal(out.Bytes(), &cr.rep); err != nil {
		return cr, fmt.Errorf("child %v: %v (output %q)", args, err, truncate(out.String(), 200))
	}
	if cr.rep.Err != "" {
		return cr, fmt.Errorf("child %v: %s", args, cr.rep.Err)
	}
	if runErr != nil {
		return cr, fmt.Errorf("child %v: %w", args, runErr)
	}
	return cr, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// regenBench drives regen-cold (disk == false) and regen-disk.
type regenBench struct {
	root    string
	work    string // scratch directory for disk caches
	disk    bool
	jobs    int
	goldens goldens
	dir     string // populated trace cache (regen-disk)

	spanBase  int64
	setups    []passReport // one traces child per set-up
	wantInsts uint64       // simulated instructions every pass must report
	passes    []childRun   // the traced window's passes
}

func newRegenBench(root, work string, disk bool) *regenBench {
	return &regenBench{root: root, work: work, disk: disk, jobs: runtime.NumCPU(), spanBase: 1 << 32}
}

// setupRepeats: each set-up simulates all 17 workloads in a child, about
// a second; regen-disk also stores them.
func (b *regenBench) setupRepeats() int { return 3 }

// setup loads the reference tables and runs one traces child: it
// simulates every workload, giving the instruction count each pass is
// checked against, and for regen-disk stores the traces into a fresh
// disk cache that the passes then load.
func (b *regenBench) setup(i int, rec *recorder, parent int64) error {
	g, err := loadGoldens(b.root)
	if err != nil {
		return err
	}
	b.goldens = g
	args := append(b.childArgs(rec, parent, b.jobs), "-step", "traces")
	if b.disk {
		b.dir = filepath.Join(b.work, "traces-"+strconv.Itoa(i))
		if err := os.RemoveAll(b.dir); err != nil {
			return err
		}
		args = append(args, "-dir", b.dir)
	}
	cr, err := runChild(args...)
	if err != nil {
		return err
	}
	rec.append(cr.rep.Spans...)
	if s := cr.rep.Workload; b.disk && (s.DiskMisses != uint64(len(workload.Names())) || s.DiskErrors != 0) {
		return fmt.Errorf("populate: %d disk misses, %d errors; want %d misses, 0 errors", s.DiskMisses, s.DiskErrors, len(workload.Names()))
	}
	if i > 0 && cr.rep.Insts != b.wantInsts {
		return fmt.Errorf("set-up %d simulated %d instructions, set-up 0 %d", i, cr.rep.Insts, b.wantInsts)
	}
	b.wantInsts = cr.rep.Insts
	b.setups = append(b.setups, cr.rep)
	return nil
}

// childArgs are the flags every child gets; parent is the span the
// child's top-level spans hang under.
func (b *regenBench) childArgs(rec *recorder, parent int64, jobs int) []string {
	args := []string{"-jobs", strconv.Itoa(jobs)}
	if rec != nil {
		b.spanBase += 1 << 24
		args = append(args, "-trace", "-span-base", strconv.FormatInt(b.spanBase, 10), "-span-parent", strconv.FormatInt(parent, 10))
	}
	return args
}

// pass runs one regen op in a fresh child and checks its tables and its
// simulated instruction count.
func (b *regenBench) pass(rec *recorder, jobs int) (childRun, opCounts, error) {
	passID := rec.newID()
	args := append(b.childArgs(rec, passID, jobs), "-step", "pass")
	if b.disk {
		args = append(args, "-dir", b.dir)
	}
	t0 := time.Now()
	cr, err := runChild(args...)
	rec.add(passID, 0, 0, "regen.pass", t0, time.Now())
	c := opCounts{Attempted: 1}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		c.Failed = 1
		return cr, c, nil
	}
	rec.append(cr.rep.Spans...)
	if bad := b.goldens.checkTables(cr.rep.Tables); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: pass tables differ from results/: %s\n", strings.Join(bad, ", "))
		c.Wrong = 1
	}
	if cr.rep.Insts != b.wantInsts {
		fmt.Fprintf(os.Stderr, "perfbench: pass traces hold %d instructions, set-up simulated %d\n", cr.rep.Insts, b.wantInsts)
		c.Wrong = 1
	}
	return cr, c, nil
}

// warmup does nothing: every pass starts a fresh process.
func (b *regenBench) warmup() (opCounts, error) { return opCounts{}, nil }

func (b *regenBench) window(d time.Duration, rec *recorder) (windowStats, error) {
	var ws windowStats
	var rss []float64
	b.passes = b.passes[:0]
	start := time.Now()
	// A pass starts only while its expected midpoint falls inside the
	// window, so a run ends within about half a pass of d, not up to a
	// whole pass after it.
	var last time.Duration
	for len(ws.latencies) == 0 || time.Since(start)+last/2 < d {
		cr, c, err := b.pass(rec, b.jobs)
		last = cr.wall
		if err != nil {
			return ws, err
		}
		ws.counts.add(c)
		ws.latencies = append(ws.latencies, cr.wall)
		if c.Failed == 0 {
			rss = append(rss, cr.rssMB)
			b.passes = append(b.passes, cr)
		}
	}
	ws.elapsed = time.Since(start)
	ws.peakRSSMB = median(rss)
	return ws, nil
}

// layers reports the traced window's per-layer metrics: medians over its
// passes, plus one serial pass (the useful-work reference for
// coding.useful_ratio) and, for regen-disk, the disk layer's store time.
func (b *regenBench) layers(ws windowStats, rec *recorder) (map[string]float64, opCounts, error) {
	m := map[string]float64{}
	var extra opCounts
	if len(b.passes) == 0 {
		return m, extra, nil
	}
	med := func(f func(passReport) float64) float64 {
		vals := make([]float64, len(b.passes))
		for i, p := range b.passes {
			vals[i] = f(p.rep)
		}
		return median(vals)
	}
	if b.disk {
		cr, err := runChild(append(b.childArgs(rec, 0, 1), "-step", "store", "-dir", filepath.Join(b.work, "store"))...)
		if err != nil {
			return nil, extra, err
		}
		rec.append(cr.rep.Spans...)
		m["cpu.sim_ms"] = cr.rep.SimMS
		m["cpu.insts"] = float64(b.wantInsts)
		m["workload.store_ms"] = cr.rep.StoreMS
		m["workload.load_ms"] = med(func(r passReport) float64 { return r.TracesMS })
	} else {
		m["cpu.sim_ms"] = med(func(r passReport) float64 { return r.TracesMS })
		m["cpu.insts"] = med(func(r passReport) float64 { return float64(r.Insts) })
	}
	m["cpu.minst_per_s"] = ratio(m["cpu.insts"], m["cpu.sim_ms"]*1000)
	m["workload.mem_hits"] = med(func(r passReport) float64 { return float64(r.Workload.MemHits) })
	m["workload.mem_misses"] = med(func(r passReport) float64 { return float64(r.Workload.MemMisses) })
	m["workload.disk_hits"] = med(func(r passReport) float64 { return float64(r.Workload.DiskHits) })
	m["workload.disk_misses"] = med(func(r passReport) float64 { return float64(r.Workload.DiskMisses) })
	m["workload.disk_errors"] = med(func(r passReport) float64 { return float64(r.Workload.DiskErrors) })
	m["experiments.run_ms"] = med(func(r passReport) float64 { return r.RunMS })
	for _, id := range experimentIDs() {
		m["experiments."+id+"_ms"] = med(func(r passReport) float64 { return r.ExpMS[id] })
	}
	m["experiments.memo_hits"] = med(func(r passReport) float64 { return float64(r.Memo.Hits) })
	m["experiments.memo_misses"] = med(func(r passReport) float64 { return float64(r.Memo.Misses) })
	m["experiments.memo_hit_ratio"] = ratio(m["experiments.memo_hits"], m["experiments.memo_hits"]+m["experiments.memo_misses"])
	m["experiments.raw_meter_misses"] = med(func(r passReport) float64 { return float64(r.RawMeter.Misses) })
	m["experiments.sliced_misses"] = med(func(r passReport) float64 { return float64(r.Sliced.Misses) })
	m["coding.cycles"] = med(func(r passReport) float64 { return float64(r.Cycles) })
	m["coding.mcycles_per_s"] = ratio(m["coding.cycles"], m["experiments.run_ms"]*1000)
	m["runtime.gc_cycles"] = med(func(r passReport) float64 { return float64(r.GCCycles) })
	m["runtime.gc_pause_ms"] = med(func(r passReport) float64 { return r.GCPause })
	m["runtime.alloc_mb_per_op"] = med(func(r passReport) float64 { return r.AllocMB })

	// Concurrent experiments re-encode cells another experiment is already
	// computing, so a parallel pass evaluates more cycles than a serial
	// one; the ratio is the share of encode work that was needed.
	serial, c, err := b.pass(rec, 1)
	if err != nil {
		return nil, extra, err
	}
	extra.add(c)
	if c.Failed == 0 {
		m["coding.useful_ratio"] = ratio(float64(serial.rep.Cycles), m["coding.cycles"])
	}
	return m, extra, nil
}

func (b *regenBench) close() {}
