package serve

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// requestIDSeed is a per-process random prefix so request ids are unique
// across restarts; the per-request counter makes them unique (and
// ordered) within one.
var (
	requestIDSeed    = newRequestIDSeed()
	requestIDCounter atomic.Uint64
)

func newRequestIDSeed() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

func nextRequestID() string {
	return fmt.Sprintf("%s-%06d", requestIDSeed, requestIDCounter.Add(1))
}

// statusRecorder captures the response code for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the full request middleware stack:
// request-id assignment (echoed in X-Request-Id), panic recovery (500,
// with stack logged, never a torn connection taking the server down),
// structured per-request logging, and metrics recording under the given
// handler name.
func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = nextRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.log.Error("panic serving request",
					"request_id", id, "handler", name, "panic", fmt.Sprint(p),
					"stack", string(debug.Stack()))
				if rec.code == http.StatusOK {
					writeError(rec, http.StatusInternalServerError, "internal error")
				}
			}
			elapsed := time.Since(start)
			s.metrics.record(name, rec.code, elapsed)
			// Under QuietAccessLog successful requests log at debug —
			// formatting tens of thousands of per-request lines is a
			// measurable cost at load-test rates. Failures always log.
			level := slog.LevelInfo
			if s.opts.QuietAccessLog && rec.code < 400 {
				level = slog.LevelDebug
			}
			s.log.Log(r.Context(), level, "request",
				"request_id", id,
				"handler", name,
				"method", r.Method,
				"path", r.URL.Path,
				"code", rec.code,
				"elapsed_ms", float64(elapsed.Microseconds())/1000,
				"remote", r.RemoteAddr,
			)
		}()
		h(rec, r)
	})
}

// writeError emits the uniform JSON error envelope.
func writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSONBytes emits an already-marshalled JSON payload (newline
// included) with the given status code — the cached-response fast path.
func writeJSONBytes(w http.ResponseWriter, code int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
}

// writeJSON emits v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	data, err := json.Marshal(v)
	if err != nil {
		// Marshalling our own response types cannot fail; guard anyway.
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}
