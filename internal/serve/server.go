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
	metrics   *metrics
	respCache *respCache
	log       *slog.Logger
	mux       *http.ServeMux
	draining  atomic.Bool
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
	s := &Server{
		opts:      opts,
		pool:      newPool(opts.Workers, opts.QueueDepth),
		metrics:   newMetrics([]string{"eval", "schemes", "workloads", "healthz", "metrics"}),
		respCache: newRespCache(responseCacheEntries),
		log:       log,
		mux:       http.NewServeMux(),
	}
	s.mux.Handle("/v1/eval", s.instrument("eval", s.handleEval))
	s.mux.Handle("/v1/schemes", s.instrument("schemes", s.handleSchemes))
	s.mux.Handle("/v1/workloads", s.instrument("workloads", s.handleWorkloads))
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
	s.log.Info("draining", "timeout", s.opts.DrainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		// The drain window expired with requests still running; cut them.
		hs.Close()
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	s.log.Info("drained")
	return nil
}
