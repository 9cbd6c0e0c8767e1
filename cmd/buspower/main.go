// Command buspower reproduces the tables and figures of "Exploiting
// Prediction to Reduce Power on Buses" (Wen, UCB/CSD-3-1294).
//
// Usage:
//
//	buspower -list
//	buspower -exp table3
//	buspower -exp fig15,fig16 -quick
//	buspower -exp all -o results/ -jobs 8 -v
//	buspower -exp all -trace-cache /tmp/traces
//	buspower -exp all -verify full
//	buspower bench -quick -out results/BENCH_PR9.json
//	buspower serve -addr :8080 -workers 8
//	buspower eval -server http://localhost:8080 -scheme gray -random 10000
//	buspower job -server http://localhost:8080 -suite table3,fig15 -watch
//	buspower loadtest -servers http://h0:8080,http://h1:8081 -c 64 -duration 15s
//
// Experiments run concurrently on a bounded worker pool (-jobs, default
// GOMAXPROCS) with deterministic output: the printed TSVs are
// byte-identical to running each experiment serially. Each experiment
// prints (or writes) a TSV table whose series correspond to the paper's
// artifact; see DESIGN.md for the per-experiment index and EXPERIMENTS.md
// for paper-vs-measured numbers.
//
// Simulated traces are cached twice: in memory within one run, and in a
// persistent content-addressed directory across runs (default:
// os.UserCacheDir()/buspower/traces; override with -trace-cache, disable
// with -no-disk-cache). Cache keys hash the program text, the core
// configuration, the run bounds and the container format version, so a
// stale entry can never be served. Whole evaluation results are further
// memoized in-process (single-flight, LRU-bounded), so experiments that
// revisit a (transcoder config, trace, Λ) point compute it once; -v
// prints the memo's hit/miss counters.
//
// Decoder round-trip checking follows -verify: "sampled" (the default
// for experiment runs) checks the first window of every trace live plus
// a periodic sample replayed at the end; "full" checks every cycle;
// "off" disables the self-check. The printed tables are bit-identical
// under every policy — only the failure-detection latitude changes.
//
// The bench subcommand runs the kernel micro-benchmarks and an
// end-to-end quick regeneration, writing a JSON report comparable across
// PRs (see "Profiling & benchmarking" in README.md). Both modes accept
// -cpuprofile/-memprofile for pprof captures.
//
// The serve subcommand exposes the same memoized evaluation engine as an
// HTTP JSON API (POST /v1/eval, plus /v1/schemes, /v1/workloads,
// /healthz and Prometheus-format /metrics); see "Serving" in README.md.
// Every answer is a pure function of the canonical request, so
// independent replicas behind any load balancer return identical bytes
// without coordinating (see "Scaling out" in README.md).
// Batches and whole experiment suites run asynchronously behind
// POST /v1/jobs: jobs are content-addressed, drained by a dedicated
// worker pool, observable via GET /v1/jobs/{id} (or the SSE stream at
// /v1/jobs/{id}/events), cancellable via DELETE, and journaled under
// -jobs-dir so completed results survive restarts; see "Jobs API" in
// README.md.
//
// The eval and job subcommands are remote clients for a running server,
// built on the typed SDK (pkg/buspowersdk): eval runs one synchronous
// evaluation; job submits, lists, watches (SSE) and cancels async jobs.
// The loadtest subcommand measures closed-loop warm-path throughput
// against one server or a set of replicas and writes a JSON report
// that records the machine context next to the numbers.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"buspower/internal/bench"
	"buspower/internal/coding"
	"buspower/internal/experiments"
	"buspower/internal/report"
	"buspower/internal/workload"
)

func main() {
	subcommands := map[string]func([]string) error{
		"bench":    runBench,
		"serve":    runServe,
		"eval":     runEval,
		"job":      runJob,
		"loadtest": runLoadtest,
	}
	if len(os.Args) > 1 {
		if sub, ok := subcommands[os.Args[1]]; ok {
			if err := sub(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "buspower %s: %v\n", os.Args[1], err)
				os.Exit(1)
			}
			return
		}
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "buspower:", err)
		os.Exit(1)
	}
}

// profileFlags registers -cpuprofile/-memprofile on fs and returns a
// start function whose returned stop function finishes both captures.
func profileFlags(fs *flag.FlagSet) func() (stop func() error, err error) {
	cpu := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	mem := fs.String("memprofile", "", "write a pprof heap profile to this file")
	return func() (func() error, error) {
		var cpuFile *os.File
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				return nil, err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return nil, err
			}
			cpuFile = f
		}
		memPath := *mem
		return func() error {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					return err
				}
			}
			if memPath != "" {
				f, err := os.Create(memPath)
				if err != nil {
					return err
				}
				defer f.Close()
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
}

// runBench implements the `buspower bench` subcommand.
func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		quick     = fs.Bool("quick", false, "short per-kernel benchmark budget (CI smoke); skips the full-scale e2e phase")
		skipE2E   = fs.Bool("skip-e2e", false, "skip the end-to-end -exp all -quick timing")
		out       = fs.String("out", "results/BENCH_PR9.json", "write the JSON report to this file ('-' for stdout)")
		baseline  = fs.String("baseline", "", "previous report to embed baseline numbers and speedups from")
		note      = fs.String("note", "", "free-form context recorded in the report (machine caveats, why the run was taken)")
		benchtime = fs.Duration("benchtime", 0, "per-kernel time budget (0 = 500ms, or 30ms with -quick)")
		minRatio  = fs.Float64("min-throughput-ratio", 0, "fail unless suite throughput ÷ baseline throughput ≥ this (requires -baseline; 0 disables)")
		quiet     = fs.Bool("q", false, "suppress per-kernel progress on stderr")
	)
	startProfiles := profileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := bench.Options{Quick: *quick, SkipE2E: *skipE2E, BenchTime: *benchtime, Note: *note}
	if *baseline != "" {
		base, err := bench.Load(*baseline)
		if err != nil {
			return err
		}
		opts.Baseline = base
	}
	if !*quiet {
		opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	rep, err := bench.Run(opts)
	if err != nil {
		return err
	}
	if err := stopProfiles(); err != nil {
		return err
	}
	if *minRatio > 0 {
		if rep.E2E == nil || rep.E2E.ThroughputRatio == 0 {
			return fmt.Errorf("bench: -min-throughput-ratio needs a -baseline report with suite throughput and an e2e phase")
		}
		if rep.E2E.ThroughputRatio < *minRatio {
			return fmt.Errorf("bench: suite throughput regressed: %.1f Mcycles/s is %.2fx baseline (%.1f), below the %.2f floor",
				rep.E2E.WarmMCyclesPerSec, rep.E2E.ThroughputRatio, rep.E2E.BaselineWarmMCyclesPerSec, *minRatio)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "throughput gate: %.2fx baseline (floor %.2f) ok\n", rep.E2E.ThroughputRatio, *minRatio)
		}
	}
	if *out == "-" {
		data, err := rep.MarshalIndent()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	if dir := filepath.Dir(*out); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := rep.WriteFile(*out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	return nil
}

func run() error {
	var (
		list      = flag.Bool("list", false, "list available experiments and exit")
		exp       = flag.String("exp", "", "comma-separated experiment ids; 'all' (alone or inside the list) selects every experiment")
		quick     = flag.Bool("quick", false, "reduced sweeps and trace lengths (smoke test)")
		instrs    = flag.Uint64("instrs", 0, "override max simulated instructions per workload")
		values    = flag.Int("values", 0, "override max captured bus values per workload (-1 = unlimited, 0 = keep the config's cap)")
		jobs      = flag.Int("jobs", 0, "max concurrent workers across experiments and their sweeps (0 = GOMAXPROCS)")
		outDir    = flag.String("o", "", "write one <id>.tsv per experiment into this directory instead of stdout")
		verbose   = flag.Bool("v", false, "print per-experiment progress, wall times and cache/memo stats to stderr")
		verify    = flag.String("verify", "sampled", "decoder round-trip verification policy: full, sampled[:N] or off (results are bit-identical under all of them)")
		reportOut = flag.String("report", "", "write a Markdown self-check report (paper vs measured) to this file ('-' for stdout)")
		cacheDir  = flag.String("trace-cache", "", "persistent trace cache directory (default: the per-user cache dir)")
		noDisk    = flag.Bool("no-disk-cache", false, "disable the persistent trace cache for this run")
	)
	startProfiles := profileFlags(flag.CommandLine)
	flag.Parse()
	stopProfiles, err := startProfiles()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "buspower: profile:", err)
		}
	}()

	// The persistent trace cache is on by default: simulation output is
	// deterministic in its content-addressed key, so reuse is always
	// sound. An unusable directory degrades to memory-only caching.
	setupTraceCache(*cacheDir, *noDisk)

	if *list {
		titles := experiments.Titles()
		for _, id := range experiments.IDs() {
			fmt.Printf("%-8s %s\n", id, titles[id])
		}
		return nil
	}
	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	// Experiment runs default to sampled verification: the meters read
	// only the encoder output, so every policy prints identical tables —
	// -verify=full re-proves each decode at the cost of running the
	// decoder on every cycle (see EXPERIMENTS.md).
	policy, err := coding.ParseVerifyPolicy(*verify)
	if err != nil {
		return err
	}
	cfg.Verify = policy
	if *instrs > 0 {
		cfg.Run.MaxInstructions = *instrs
	}
	// MaxBusValues uses 0 as the "unlimited" sentinel, so the CLI needs a
	// distinct one: -1 (any negative) requests unlimited capture, 0 leaves
	// the base config's cap in place.
	if *values < 0 {
		cfg.Run.MaxBusValues = 0
	} else if *values > 0 {
		cfg.Run.MaxBusValues = *values
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := experiments.Options{Jobs: *jobs}
	if *verbose {
		opts.Progress = func(ev experiments.ProgressEvent) {
			if !ev.Done {
				fmt.Fprintf(os.Stderr, "running %s...\n", ev.ID)
				return
			}
			if ev.Err != nil {
				fmt.Fprintf(os.Stderr, "[%d/%d] %s failed after %v: %v\n", ev.Index+1, ev.Total, ev.ID, ev.Elapsed.Round(time.Millisecond), ev.Err)
				return
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s done in %v\n", ev.Index+1, ev.Total, ev.ID, ev.Elapsed.Round(time.Millisecond))
		}
	}

	if *reportOut != "" {
		r, err := report.BuildContext(ctx, cfg, opts)
		if err != nil {
			return err
		}
		md := r.Markdown()
		if *reportOut == "-" {
			fmt.Print(md)
			return nil
		}
		if err := os.WriteFile(*reportOut, []byte(md), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *reportOut)
		return nil
	}

	if *exp == "" {
		flag.Usage()
		return fmt.Errorf("no experiment selected (use -exp, -report or -list)")
	}

	// Validate the whole selection before anything runs: a typo in
	// "-exp fig15,figXX" must fail here, not after fig15 already printed.
	ids, err := experiments.ResolveIDs(*exp)
	if err != nil {
		return err
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	tables, err := experiments.RunAll(ctx, cfg, ids, opts)
	if *verbose {
		s := workload.Stats()
		fmt.Fprintf(os.Stderr, "trace cache: memory %d hits / %d misses", s.MemHits, s.MemMisses)
		if dir := workload.TraceCacheDir(); dir != "" {
			fmt.Fprintf(os.Stderr, "; disk %d hits / %d misses (%d errors) in %s", s.DiskHits, s.DiskMisses, s.DiskErrors, dir)
		}
		fmt.Fprintln(os.Stderr)
		m := experiments.EvalMemoStats()
		fmt.Fprintf(os.Stderr, "eval memo: %d hits / %d misses, %d evictions, %d entries", m.Hits, m.Misses, m.Evictions, m.Size)
		r := experiments.RawMeterMemoStats()
		fmt.Fprintf(os.Stderr, "; raw meters: %d hits / %d misses\n", r.Hits, r.Misses)
		sl := experiments.SlicedCacheStats()
		fmt.Fprintf(os.Stderr, "sliced planes: %d hits / %d misses, %d entries\n", sl.Hits, sl.Misses, sl.Size)
	}
	if err != nil {
		return err
	}
	for i, tbl := range tables {
		if *outDir == "" {
			fmt.Print(tbl.TSV())
			fmt.Println()
			continue
		}
		path := filepath.Join(*outDir, ids[i]+".tsv")
		if err := os.WriteFile(path, []byte(tbl.TSV()), 0o644); err != nil {
			return err
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	return nil
}
