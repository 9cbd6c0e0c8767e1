package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"buspower/internal/coding"
	"buspower/internal/experiments"
	"buspower/internal/workload"
)

// handleEval answers POST /v1/eval: one experiments.EvalRequest in, one
// experiments.EvalResponse out. The full pipeline is: body size limit →
// response cache keyed by the raw body → strict parse/validate (400) →
// pool admission (429 when saturated) → per-request timeout → memoized
// evaluation. EvaluateRequest builds the one transcoder, and its eval
// memo answers a request spelled differently from an earlier one.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := readBody(w, r, s.opts.MaxBodyBytes)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	// A repeated byte-identical request skips the whole pipeline. Only
	// successful responses are ever cached (an error describes this
	// request's admission or deadline, not the body's answer), so the
	// cache can never change an answer.
	digest := sha256.Sum256(body)
	if data, ok := s.respCache.get(digest); ok {
		writeJSONBytes(w, http.StatusOK, data)
		return
	}
	req, err := experiments.ParseEvalRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	release, err := s.pool.acquire(r.Context())
	if err != nil {
		switch {
		case errors.Is(err, errSaturated):
			w.Header().Set("Retry-After", strconv.Itoa(s.evalRetryAfterSeconds()))
			writeError(w, http.StatusTooManyRequests, "server saturated: %d evaluations running, %d queued", s.opts.Workers, s.opts.QueueDepth)
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "request deadline expired while queued")
		default: // client went away while queued
			writeError(w, http.StatusServiceUnavailable, "request cancelled while queued")
		}
		return
	}
	defer release()

	ctx := r.Context()
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
	}
	resp, err := experiments.EvaluateRequest(ctx, req)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "evaluation exceeded the %v request timeout", s.opts.RequestTimeout)
		case errors.Is(err, context.Canceled):
			writeError(w, http.StatusServiceUnavailable, "request cancelled")
		default:
			// Everything else EvaluateRequest rejects is the request's
			// fault, e.g. scheme parameter combinations that parse but
			// that no constructor admits (spatial at width 32).
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	data, err := json.Marshal(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "response encoding failed")
		return
	}
	data = append(data, '\n') // exact writeJSON framing, so all paths are byte-identical
	s.respCache.put(digest, data)
	writeJSONBytes(w, http.StatusOK, data)
}

// readBody reads the size-capped request body.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
}

// writeBodyError maps a readBody failure to 413 (over the cap) or 400.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "reading body: %v", err)
}

// schemeInfo describes one accepted scheme kind for /v1/schemes.
type schemeInfo struct {
	Kind    string `json:"kind"`
	Example string `json:"example"`
}

var schemeExamples = map[string]string{
	"raw":       "raw",
	"gray":      "gray",
	"spatial":   "spatial:width=4",
	"businvert": "businvert",
	"inversion": "inversion:patterns=4",
	"pbi":       "pbi:groups=4",
	"stride":    "stride:strides=4",
	"window":    "window:entries=8",
	"context":   "context:table=64,sr=8,divide=4096,transition=false",
	"optmem":    "optmem:extra=2",
	"vc":        "vc:extra=2",
	"lowweight": "lowweight:groups=4,extra=1",
	"dvs":       "dvs:extra=2,vdd=80",
}

// handleSchemes answers GET /v1/schemes with the accepted scheme grammar.
func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	kinds := coding.SchemeKinds()
	out := make([]schemeInfo, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, schemeInfo{Kind: k, Example: schemeExamples[k]})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"schemes": out,
		"grammar": "kind[:key=value[,key=value...]]; common keys: width=1..62, lambda>=0",
	})
}

// workloadInfo describes one registered workload for /v1/workloads.
type workloadInfo struct {
	Name        string   `json:"name"`
	Suite       string   `json:"suite"`
	Description string   `json:"description"`
	Buses       []string `json:"buses"`
}

// handleWorkloads answers GET /v1/workloads with the evaluable sources.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	all := workload.All()
	out := make([]workloadInfo, 0, len(all))
	for _, wl := range all {
		out = append(out, workloadInfo{
			Name:        wl.Name,
			Suite:       wl.Suite.String(),
			Description: wl.Description,
			Buses:       []string{"reg", "mem", "addr"},
		})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"workloads": out})
}

// handleHealthz answers GET /healthz: 200 while serving, 503 once
// shutdown has begun (so load balancers stop routing new traffic while
// in-flight requests drain).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics answers GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.render(w, s)
}
