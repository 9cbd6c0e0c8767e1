package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"buspower/pkg/buspowersdk"
)

// `buspower loadtest`: closed-loop warm-path throughput measurement
// against one server or a set of independent replicas. A fixed set of
// distinct requests is generated deterministically from a seed, warmed
// into every cache layer (memo, response cache) of every target, then
// hammered by N concurrent workers round-robining across the targets.
// The committed JSON report carries the machine context (CPU count,
// GOMAXPROCS) alongside the numbers, because absolute throughput is
// meaningless without it.

// loadtestReport is the committed artifact (results/LOADTEST_*.json).
type loadtestReport struct {
	Schema     int       `json:"schema"`
	Created    time.Time `json:"created"`
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`

	Targets      []string `json:"targets"`
	Concurrency  int      `json:"concurrency"`
	DistinctKeys int      `json:"distinct_requests"`
	Scheme       string   `json:"scheme"`
	TraceLen     int      `json:"trace_len"`
	WarmupSecs   float64  `json:"warmup_seconds"`
	MeasuredSecs float64  `json:"measured_seconds"`

	Requests     uint64  `json:"requests"`
	Errors       uint64  `json:"errors"`
	ReqPerSec    float64 `json:"requests_per_second"`
	LatencyMsP50 float64 `json:"latency_ms_p50"`
	LatencyMsP95 float64 `json:"latency_ms_p95"`
	LatencyMsP99 float64 `json:"latency_ms_p99"`
	Note         string  `json:"note,omitempty"`
}

// loadtestRequests derives the distinct request set: deterministic
// inline traces (xorshift from the seed), so every run against the
// same flags measures the same key population. Bodies are marshalled
// once, up front: the hot loop sends fixed bytes through EvalRaw,
// keeping the generator's per-request JSON cost out of the measurement.
func loadtestRequests(keys, traceLen int, scheme string, seed uint64) ([][]byte, error) {
	bodies := make([][]byte, keys)
	state := seed | 1
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := range bodies {
		values := make([]uint64, traceLen)
		for j := range values {
			values[j] = next()
		}
		body, err := json.Marshal(buspowersdk.EvalRequest{Values: values, Scheme: scheme})
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	return bodies, nil
}

// runLoadtest implements the `buspower loadtest` subcommand.
func runLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	var (
		servers     = fs.String("servers", "http://localhost:8080", "comma-separated target base URLs (independent replicas, or one server)")
		concurrency = fs.Int("c", 32, "concurrent closed-loop workers")
		duration    = fs.Duration("duration", 10*time.Second, "measured phase length")
		warmup      = fs.Duration("warmup", 2*time.Second, "cache warm-up phase length (not measured)")
		keys        = fs.Int("keys", 64, "distinct requests in the working set")
		traceLen    = fs.Int("trace-len", 64, "inline trace length per request")
		scheme      = fs.String("scheme", "gray", "coding scheme under load")
		seed        = fs.Uint64("seed", 0x9E3779B97F4A7C15, "request-generation seed")
		out         = fs.String("out", "", "write the JSON report to this file (default stdout)")
		note        = fs.String("note", "", "free-form context recorded in the report")
		minRPS      = fs.Float64("min-rps", 0, "fail unless measured req/s >= this (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := strings.Split(*servers, ",")
	for i := range targets {
		targets[i] = strings.TrimSpace(targets[i])
	}
	clients := make([]*buspowersdk.Client, len(targets))
	for i, u := range targets {
		// No retries: under load, a shed request must count as a shed
		// request, not hide inside a backoff loop.
		c, err := buspowersdk.New(u, buspowersdk.WithRetries(0))
		if err != nil {
			return err
		}
		clients[i] = c
	}
	reqs, err := loadtestRequests(*keys, *traceLen, *scheme, *seed)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Warm-up: push every request through every target once (fills each
	// replica's response cache), then free-run the remaining warm-up
	// budget.
	for _, c := range clients {
		for i := range reqs {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if _, err := c.EvalRaw(ctx, reqs[i]); err != nil {
				return fmt.Errorf("warm-up against %s: %w", c.BaseURL(), err)
			}
		}
	}
	warmCtx, cancelWarm := context.WithTimeout(ctx, *warmup)
	runWorkers(warmCtx, *concurrency, clients, reqs, nil, nil)
	cancelWarm()
	if ctx.Err() != nil {
		return ctx.Err()
	}

	// Measured phase.
	var requests, errors atomic.Uint64
	latencies := make([][]time.Duration, *concurrency)
	measCtx, cancelMeas := context.WithTimeout(ctx, *duration)
	start := time.Now()
	runWorkers(measCtx, *concurrency, clients, reqs, &latencies, func(ok bool) {
		requests.Add(1)
		if !ok {
			errors.Add(1)
		}
	})
	elapsed := time.Since(start)
	cancelMeas()

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i].Microseconds()) / 1000
	}

	rep := loadtestReport{
		Schema:       1,
		Created:      time.Now().UTC(),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Targets:      targets,
		Concurrency:  *concurrency,
		DistinctKeys: *keys,
		Scheme:       *scheme,
		TraceLen:     *traceLen,
		WarmupSecs:   warmup.Seconds(),
		MeasuredSecs: elapsed.Seconds(),
		Requests:     requests.Load(),
		Errors:       errors.Load(),
		ReqPerSec:    float64(requests.Load()-errors.Load()) / elapsed.Seconds(),
		LatencyMsP50: pct(0.50),
		LatencyMsP95: pct(0.95),
		LatencyMsP99: pct(0.99),
		Note:         *note,
	}
	fmt.Fprintf(os.Stderr, "loadtest: %d req (%d errors) in %.2fs = %.0f req/s; p50 %.3fms p95 %.3fms p99 %.3fms\n",
		rep.Requests, rep.Errors, rep.MeasuredSecs, rep.ReqPerSec, rep.LatencyMsP50, rep.LatencyMsP95, rep.LatencyMsP99)

	if *out != "" {
		if dir := filepath.Dir(*out); dir != "." && dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	} else if err := printJSON(rep); err != nil {
		return err
	}
	if *minRPS > 0 && rep.ReqPerSec < *minRPS {
		return fmt.Errorf("loadtest: %.0f req/s is below the %.0f floor", rep.ReqPerSec, *minRPS)
	}
	return nil
}

// runWorkers drives the closed loop until ctx ends. latencies (when
// non-nil) receives each worker's sample slice; done (when non-nil) is
// called per completed request.
func runWorkers(ctx context.Context, n int, clients []*buspowersdk.Client, reqs [][]byte, latencies *[][]time.Duration, done func(ok bool)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []time.Duration
			for i := w; ctx.Err() == nil; i++ {
				c := clients[i%len(clients)]
				req := reqs[i%len(reqs)]
				t0 := time.Now()
				_, err := c.EvalRaw(ctx, req)
				if ctx.Err() != nil {
					break // deadline mid-request: not a sample
				}
				if latencies != nil {
					local = append(local, time.Since(t0))
				}
				if done != nil {
					done(err == nil)
				}
			}
			if latencies != nil {
				(*latencies)[w] = local
			}
		}(w)
	}
	wg.Wait()
}
