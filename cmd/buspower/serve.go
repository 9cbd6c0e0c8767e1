package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"buspower/internal/serve"
	"buspower/internal/workload"
)

// setupTraceCache applies the shared -trace-cache/-no-disk-cache
// semantics: the persistent cache is on by default, an explicit dir
// overrides the per-user default, and an unusable directory degrades to
// memory-only caching with a warning rather than failing the run.
func setupTraceCache(cacheDir string, noDisk bool) {
	if noDisk {
		return
	}
	dir := cacheDir
	if dir == "" {
		dir = workload.DefaultTraceCacheDir()
	}
	if dir != "" {
		if _, err := workload.SetTraceCacheDir(dir); err != nil {
			fmt.Fprintf(os.Stderr, "buspower: disk trace cache disabled: %v\n", err)
		}
	}
}

// runServe implements the `buspower serve` subcommand: an HTTP JSON API
// over the same memoized evaluation engine the experiment runner uses.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	def := serve.DefaultOptions()
	var (
		addr     = fs.String("addr", def.Addr, "listen address")
		workers  = fs.Int("workers", def.Workers, "max concurrently executing evaluations")
		queue    = fs.Int("queue", def.QueueDepth, "max requests waiting for a worker before 429s are shed")
		timeout  = fs.Duration("timeout", def.RequestTimeout, "per-request evaluation deadline (0 disables)")
		maxBody  = fs.Int64("max-body", def.MaxBodyBytes, "max /v1/eval request body bytes")
		drain    = fs.Duration("drain", def.DrainTimeout, "graceful-shutdown budget for in-flight requests")
		pprofOn  = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		quietLog = fs.Bool("quiet-access-log", false, "log successful requests at debug level only (load-test friendly)")
		verbose  = fs.Bool("v", false, "log at debug level")
		cacheDir = fs.String("trace-cache", "", "persistent trace cache directory (default: the per-user cache dir)")
		noDisk   = fs.Bool("no-disk-cache", false, "disable the persistent trace cache")

		respCache = fs.Int("resp-cache", 0, "marshalled-response LRU entries, in answers (0 = 2048)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	setupTraceCache(*cacheDir, *noDisk)

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	srv := serve.NewServer(serve.Options{
		Addr:           *addr,
		Workers:        *workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		DrainTimeout:   *drain,
		EnablePprof:    *pprofOn,
		QuietAccessLog: *quietLog,
		Logger:         logger,

		ResponseCacheEntries: *respCache,
	})

	// SIGINT/SIGTERM start a graceful drain: the listener closes, /healthz
	// flips to 503, and in-flight evaluations get up to -drain to finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	if err := srv.ListenAndServe(ctx); err != nil {
		return err
	}
	logger.Info("exited", "uptime", time.Since(start).Round(time.Millisecond).String())
	return nil
}
