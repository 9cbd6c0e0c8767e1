// Command buspower reproduces the tables and figures of "Exploiting
// Prediction to Reduce Power on Buses" (Wen, UCB/CSD-3-1294).
//
// Usage:
//
//	buspower -list
//	buspower -exp table3
//	buspower -exp fig15,fig16 -quick
//	buspower -exp all -o results/ -jobs 8 -v
//	buspower -exp all -o results/ -report results/selfcheck.md
//	buspower -report -
//	buspower -exp all -trace-cache /tmp/traces
//	buspower -exp all -verify full
//	buspower -exp all -cpuprofile cpu.pprof -o /tmp/tsv
//	buspower serve -addr :8080 -workers 8
//	buspower eval -server http://localhost:8080 -scheme gray -random 10000
//
// Experiments run concurrently on a bounded worker pool (-jobs, default
// GOMAXPROCS) with deterministic output: the printed TSVs are
// byte-identical to running each experiment serially. Each experiment
// prints (or writes) a TSV table whose series correspond to the paper's
// artifact; see DESIGN.md for the per-experiment index and EXPERIMENTS.md
// for paper-vs-measured numbers. -report grades the tables of the same
// run against the paper's numbers; on its own it runs only the
// experiments it grades.
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
// -cpuprofile/-memprofile write pprof captures of an experiment run.
// Benchmarks live outside the binary: the kernel benchmarks run under
// go test -bench, and perfbench/ times whole workloads (see "Profiling &
// benchmarking" in README.md).
//
// The serve subcommand exposes the same memoized evaluation engine as an
// HTTP JSON API (POST /v1/eval, plus /v1/schemes, /v1/workloads,
// /healthz and Prometheus-format /metrics); see "Serving" in README.md.
// A byte-identical repeat of a request is answered from a fixed-size
// cache of response bodies keyed by the raw request body; any other
// spelling of the same request is answered by the evaluation memo.
// Every answer is a pure function of the canonical request, so
// independent replicas behind any load balancer return identical bytes
// without coordinating (see "Scaling out" in README.md). A batch of
// requests is a set of concurrent /v1/eval calls; a whole suite is
// buspower -exp.
//
// The eval subcommand is a remote client for a running server, built on
// the typed SDK (pkg/buspowersdk): it runs one synchronous evaluation.
// Serving throughput is measured outside the binary, by perfbench's
// serve-miss and serve-hit workloads.
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
	"slices"
	"sort"
	"strings"
	"time"

	"buspower/internal/coding"
	"buspower/internal/experiments"
	"buspower/internal/report"
	"buspower/internal/workload"
)

// subcommands maps each subcommand to its entry point; a command line
// that does not start with one runs experiments.
var subcommands = map[string]func([]string) error{
	"serve": runServe,
	"eval":  runEval,
}

func main() {
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

// checkNoArgs rejects positional arguments left after flag parsing: the
// experiment runner takes none, so a stray word is a typo or a
// subcommand that does not exist.
func checkNoArgs(args []string) error {
	if len(args) == 0 {
		return nil
	}
	names := make([]string, 0, len(subcommands))
	for name := range subcommands {
		names = append(names, name)
	}
	sort.Strings(names)
	return fmt.Errorf("unexpected argument %q (subcommands: %s)", args[0], strings.Join(names, ", "))
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
		reportOut = flag.String("report", "", "write a Markdown self-check report grading this run's tables (paper vs measured) to this file ('-' for stdout)")
		cacheDir  = flag.String("trace-cache", "", "persistent trace cache directory (default: the per-user cache dir)")
		noDisk    = flag.Bool("no-disk-cache", false, "disable the persistent trace cache for this run")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()
	if err := checkNoArgs(flag.Args()); err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "buspower: profile:", err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err == nil {
				runtime.GC()
				err = pprof.WriteHeapProfile(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "buspower: profile:", err)
			}
		}()
	}

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

	if *exp == "" && *reportOut == "" {
		flag.Usage()
		return fmt.Errorf("no experiment selected (use -exp, -report or -list)")
	}

	// Validate the whole selection before anything runs: a typo in
	// "-exp fig15,figXX" must fail here, not after fig15 already printed.
	var ids []string
	if *exp != "" {
		if ids, err = experiments.ResolveIDs(*exp); err != nil {
			return err
		}
	}
	// -report grades the tables of this run: the ones -exp selected, plus
	// any the report needs that -exp left out, which run but are not
	// printed. -report alone runs just the report's experiments.
	runIDs := ids
	if *reportOut != "" {
		for _, id := range report.Experiments() {
			if !slices.Contains(runIDs, id) {
				runIDs = append(runIDs, id)
			}
		}
	}
	if *outDir != "" && len(ids) > 0 {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	tables, err := experiments.RunAll(ctx, cfg, runIDs, opts)
	if *verbose {
		s := workload.Stats()
		fmt.Fprintf(os.Stderr, "trace cache: memory %d hits / %d misses, %s resident (%s mapped, %s heap)",
			s.MemHits, s.MemMisses, mb(s.ResidentBytes), mb(s.MappedBytes), mb(s.ResidentBytes-s.MappedBytes))
		if dir := workload.TraceCacheDir(); dir != "" {
			fmt.Fprintf(os.Stderr, "; disk %d hits / %d misses (%d errors) in %s", s.DiskHits, s.DiskMisses, s.DiskErrors, dir)
		}
		fmt.Fprintln(os.Stderr)
		m := experiments.EvalMemoStats()
		fmt.Fprintf(os.Stderr, "eval memo: %d hits / %d misses, %d evictions, %d entries", m.Hits, m.Misses, m.Evictions, m.Size)
		r := experiments.RawMeterMemoStats()
		fmt.Fprintf(os.Stderr, "; raw meters: %d hits / %d misses", r.Hits, r.Misses)
		tp, tapeBytes := experiments.TapeMemoStats()
		fmt.Fprintf(os.Stderr, "; stride tapes: %d hits / %d misses, %s resident\n", tp.Hits, tp.Misses, mb(tapeBytes))
	}
	if err != nil {
		return err
	}
	for i, id := range ids {
		if *outDir == "" {
			fmt.Print(tables[i].TSV())
			fmt.Println()
			continue
		}
		path := filepath.Join(*outDir, id+".tsv")
		if err := os.WriteFile(path, []byte(tables[i].TSV()), 0o644); err != nil {
			return err
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	if *reportOut == "" {
		return nil
	}
	byID := make(map[string]*experiments.Table, len(runIDs))
	for i, id := range runIDs {
		byID[id] = tables[i]
	}
	r, err := report.Build(byID)
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

// mb formats a byte count for the -v cache lines.
func mb(bytes uint64) string { return fmt.Sprintf("%.1f MB", float64(bytes)/(1<<20)) }
