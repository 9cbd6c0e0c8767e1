package serve

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"buspower/internal/jobs"
)

// Options configures a Server. The zero value is not usable; call
// DefaultOptions and override.
type Options struct {
	// Addr is the listen address, e.g. ":8080".
	Addr string
	// Workers bounds concurrently executing evaluations (<= 0 means
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker before new ones are
	// shed with 429.
	QueueDepth int
	// RequestTimeout bounds one evaluation (queue wait included via the
	// request context); <= 0 disables the timeout.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds the /v1/eval request body.
	MaxBodyBytes int64
	// DrainTimeout bounds graceful shutdown.
	DrainTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// QuietAccessLog demotes successful per-request log lines to debug
	// level; failures (4xx/5xx) still log at info.
	QuietAccessLog bool
	// Logger receives structured request and lifecycle logs; nil discards
	// them.
	Logger *slog.Logger

	// JobsDir roots the async job journal; completed job results survive
	// restarts there. Empty keeps the job engine memory-only (jobs work,
	// but nothing survives the process).
	JobsDir string
	// JobWorkers bounds the dedicated job worker pool (<= 0 means half of
	// GOMAXPROCS) — deliberately separate from Workers so batch backlogs
	// and interactive /v1/eval traffic cannot starve each other.
	JobWorkers int
	// JobQueueDepth bounds queued job items before submissions are shed
	// with 429 (<= 0 means 4× the per-job item cap).
	JobQueueDepth int

	// ResponseCacheEntries bounds the marshalled-response LRU
	// (<= 0 means 4096).
	ResponseCacheEntries int
}

// DefaultOptions returns the production defaults.
func DefaultOptions() Options {
	return Options{
		Addr:           ":8080",
		Workers:        runtime.GOMAXPROCS(0),
		QueueDepth:     64,
		RequestTimeout: 30 * time.Second,
		MaxBodyBytes:   8 << 20,
		DrainTimeout:   30 * time.Second,
	}
}

// Server is the buspower evaluation service.
type Server struct {
	opts      Options
	pool      *pool
	jobs      *jobs.Engine
	metrics   *metrics
	respCache *respCache
	log       *slog.Logger
	mux       *http.ServeMux
	draining  atomic.Bool
	// drainCh closes when shutdown begins, ending long-lived SSE streams
	// so they cannot hold the HTTP drain open for their whole job.
	drainCh chan struct{}
}

// NewServer builds a Server; fields of opts left zero fall back to
// DefaultOptions.
func NewServer(opts Options) *Server {
	def := DefaultOptions()
	if opts.Addr == "" {
		opts.Addr = def.Addr
	}
	if opts.Workers <= 0 {
		opts.Workers = def.Workers
	}
	if opts.QueueDepth < 0 {
		opts.QueueDepth = 0
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = def.MaxBodyBytes
	}
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = def.DrainTimeout
	}
	log := opts.Logger
	if log == nil {
		// Disabled at every level, so call sites skip formatting entirely
		// rather than rendering each access-log line into io.Discard.
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	// The job store follows the trace-cache discipline for an unusable
	// directory: degrade to memory-only with a warning instead of failing
	// the whole server (corrupt journal tails are already recovered
	// inside Open and never reach this path).
	store, err := jobs.Open(opts.JobsDir)
	if err != nil {
		log.Error("job journal disabled, jobs will not survive restarts", "dir", opts.JobsDir, "err", err)
		store, _ = jobs.Open("")
	}
	s := &Server{
		opts:      opts,
		pool:      newPool(opts.Workers, opts.QueueDepth),
		jobs:      jobs.NewEngine(store, opts.JobWorkers, opts.JobQueueDepth),
		metrics:   newMetrics([]string{"eval", "schemes", "workloads", "healthz", "metrics", "jobs", "job", "job_events"}),
		respCache: newRespCache(opts.ResponseCacheEntries),
		log:       log,
		mux:       http.NewServeMux(),
		drainCh:   make(chan struct{}),
	}
	s.jobs.Start()
	s.mux.Handle("/v1/eval", s.instrument("eval", s.handleEval))
	s.mux.Handle("/v1/schemes", s.instrument("schemes", s.handleSchemes))
	s.mux.Handle("/v1/workloads", s.instrument("workloads", s.handleWorkloads))
	s.mux.Handle("POST /v1/jobs", s.instrument("jobs", s.handleJobSubmit))
	s.mux.Handle("GET /v1/jobs", s.instrument("jobs", s.handleJobList))
	s.mux.Handle("GET /v1/jobs/{id}", s.instrument("job", s.handleJobGet))
	s.mux.Handle("DELETE /v1/jobs/{id}", s.instrument("job", s.handleJobCancel))
	s.mux.Handle("GET /v1/jobs/{id}/events", s.instrument("job_events", s.handleJobEvents))
	s.mux.Handle("/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("/metrics", s.instrument("metrics", s.handleMetrics))
	if opts.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the server's routing tree (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe runs the server until ctx is cancelled, then drains:
// /healthz flips to 503 so load balancers stop routing here, the
// listener closes, and in-flight requests get up to DrainTimeout to
// finish before the server exits. Returns nil on a clean drain.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is ListenAndServe on an existing listener (the listener is
// closed on shutdown).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return context.Background() },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	s.log.Info("serving", "addr", ln.Addr().String(), "workers", s.opts.Workers, "queue", s.opts.QueueDepth)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	close(s.drainCh) // end SSE streams so they can't hold the drain open
	s.log.Info("draining", "timeout", s.opts.DrainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		// The drain window expired with requests still running; cut them,
		// but still checkpoint the job engine — its journal is what lets
		// the next process resume the interrupted work.
		hs.Close()
		s.drainJobs(drainCtx)
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		s.drainJobs(drainCtx)
		return err
	}
	if err := s.drainJobs(drainCtx); err != nil {
		return err
	}
	s.log.Info("drained")
	return nil
}

// drainJobs stops the job engine within what remains of the drain
// budget: running items finish (or are cancelled at the deadline and
// resume after restart), then the journal compacts and closes.
func (s *Server) drainJobs(ctx context.Context) error {
	err := s.jobs.Drain(ctx)
	if err != nil {
		s.log.Error("job engine drain", "err", err)
		return err
	}
	s.log.Info("job engine drained")
	return nil
}

// Close releases the server's background resources (the job worker pool
// and its journal) without serving; for embedding and tests that drive
// the Handler directly.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
	defer cancel()
	return s.jobs.Drain(ctx)
}
