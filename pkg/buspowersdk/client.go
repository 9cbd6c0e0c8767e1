// Package buspowersdk is the typed Go client for the buspower
// evaluation service: synchronous evaluation (/v1/eval), the discovery
// endpoints (/v1/schemes, /v1/workloads) and the operational surface
// (/healthz, /metrics). A batch is a set of concurrent Eval calls on
// one Client, which is safe for concurrent use. Transient failures —
// connection errors, 429 shedding, 502/503 — are retried with
// exponential backoff, honoring the server's Retry-After hint;
// everything else surfaces as a typed *APIError.
package buspowersdk

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client talks to one buspower server. Replicas are independent and
// return identical bytes for the same request, so any replica, or a
// load balancer in front of several, works.
type Client struct {
	base    string
	httpc   *http.Client
	retries int
	backoff time.Duration
	maxWait time.Duration
	// sleep is the retry delay hook; tests replace it to observe the
	// backoff schedule without waiting it out.
	sleep func(context.Context, time.Duration) error
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transport, instrumentation).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.httpc = h } }

// WithRetries sets how many times a transient failure is retried
// (default 3; 0 disables retrying).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base delay and the per-attempt cap of the
// exponential backoff (defaults 250ms and 5s). A server Retry-After
// overrides the computed delay but never the cap.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) {
		if base > 0 {
			c.backoff = base
		}
		if max > 0 {
			c.maxWait = max
		}
	}
}

// New builds a Client for the server at baseURL, e.g.
// "http://localhost:8080".
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("buspowersdk: base URL %q is not absolute", baseURL)
	}
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		httpc:   &http.Client{Transport: newTransport()},
		retries: 3,
		backoff: 250 * time.Millisecond,
		maxWait: 5 * time.Second,
		sleep:   sleepCtx,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// newTransport clones the default transport but raises the per-host
// idle-connection cap: the stock limit of 2 forces a fresh TCP
// handshake on nearly every request once more than two goroutines share
// a client, which dominates latency under concurrent load.
func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 256
	return t
}

// BaseURL returns the server address the client was built with.
func (c *Client) BaseURL() string { return c.base }

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// APIError is a non-2xx response, decoded from the server's uniform
// {"error": ...} envelope.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the server's error text (or a synthesized one when the
	// body was not the JSON envelope).
	Message string
	// RetryAfter is the parsed Retry-After hint (0 when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("buspower server: %d: %s", e.StatusCode, e.Message)
}

// Temporary reports whether retrying the same request can succeed:
// load shedding (429) and gateway-style failures (502, 503).
func (e *APIError) Temporary() bool {
	switch e.StatusCode {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// errorFromResponse drains resp and builds the *APIError.
func errorFromResponse(resp *http.Response) *APIError {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	e := &APIError{StatusCode: resp.StatusCode}
	var envelope struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &envelope) == nil && envelope.Error != "" {
		e.Message = envelope.Error
	} else {
		e.Message = strings.TrimSpace(string(body))
		if e.Message == "" {
			e.Message = http.StatusText(resp.StatusCode)
		}
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// call performs one API call with the retry policy and returns the 2xx
// response body. body (JSON, or nil) is re-sent verbatim on every retry.
func (c *Client) call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("buspowersdk: reading %s %s response: %w", method, path, err)
	}
	return data, nil
}

// doJSON is call that decodes the 2xx JSON body into out.
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, out interface{}) error {
	data, err := c.call(ctx, method, path, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("buspowersdk: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// do runs the request with retries and returns the first 2xx response,
// body unread. Non-2xx becomes *APIError; temporary ones are retried
// per the backoff policy before surfacing.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.httpc.Do(req)
		switch {
		case err != nil:
			// Connection-level failure: the other retryable class.
			lastErr = err
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			return resp, nil
		default:
			apiErr := errorFromResponse(resp)
			resp.Body.Close()
			if !apiErr.Temporary() {
				return nil, apiErr
			}
			lastErr = apiErr
		}
		if attempt >= c.retries {
			return nil, lastErr
		}
		if err := c.sleep(ctx, c.retryDelay(attempt, lastErr)); err != nil {
			return nil, err
		}
	}
}

// retryDelay computes the wait before retry attempt+1: exponential from
// the base, with a server Retry-After taking precedence, both capped.
func (c *Client) retryDelay(attempt int, lastErr error) time.Duration {
	d := c.maxWait
	if attempt < 16 { // beyond 2^16 the shift is academic; pin to the cap
		d = c.backoff << attempt
	}
	if apiErr, ok := lastErr.(*APIError); ok && apiErr.RetryAfter > d {
		d = apiErr.RetryAfter
	}
	if d > c.maxWait {
		d = c.maxWait
	}
	return d
}

// Eval evaluates one request synchronously.
func (c *Client) Eval(ctx context.Context, req EvalRequest) (*EvalResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var out EvalResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/eval", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// EvalRaw evaluates a pre-marshalled EvalRequest body and returns the
// raw response JSON undecoded, with the same retry policy as Eval. For
// callers that re-send a fixed request set (load generators, proxies)
// and don't want per-call marshal/unmarshal costs in the way.
func (c *Client) EvalRaw(ctx context.Context, body []byte) ([]byte, error) {
	return c.call(ctx, http.MethodPost, "/v1/eval", body)
}

// Schemes lists the accepted coding-scheme grammar.
func (c *Client) Schemes(ctx context.Context) (*SchemesResponse, error) {
	var out SchemesResponse
	if err := c.doJSON(ctx, http.MethodGet, "/v1/schemes", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Workloads lists the evaluable trace sources.
func (c *Client) Workloads(ctx context.Context) ([]WorkloadInfo, error) {
	var out struct {
		Workloads []WorkloadInfo `json:"workloads"`
	}
	if err := c.doJSON(ctx, http.MethodGet, "/v1/workloads", nil, &out); err != nil {
		return nil, err
	}
	return out.Workloads, nil
}

// Health reports the server's liveness ("ok", or "draining" wrapped in
// a 503 *APIError during shutdown).
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var out Health
	if err := c.doJSON(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the raw Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	data, err := c.call(ctx, http.MethodGet, "/metrics", nil)
	return string(data), err
}
