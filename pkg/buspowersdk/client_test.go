package buspowersdk

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fastClient builds a client whose sleeps are recorded, not slept.
func fastClient(t *testing.T, base string, opts ...Option) (*Client, *[]time.Duration) {
	t.Helper()
	c, err := New(base, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return ctx.Err()
	}
	return c, &slept
}

func TestNewRejectsBadURL(t *testing.T) {
	for _, bad := range []string{"", "localhost:8080", "http://", "::"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
}

// TestRetryOn429HonorsRetryAfter: a shed request backs off for the
// server-quoted interval, not the computed exponential one, and then
// succeeds.
func TestRetryOn429HonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"server saturated"}`)
			return
		}
		fmt.Fprint(w, `{"scheme":"gray","energy_removed_pct":12.5}`)
	}))
	defer srv.Close()
	c, slept := fastClient(t, srv.URL, WithBackoff(10*time.Millisecond, 10*time.Second))
	resp, err := c.Eval(context.Background(), EvalRequest{Values: []uint64{1}, Scheme: "gray"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.EnergyRemovedPct != 12.5 {
		t.Fatalf("resp = %+v", resp)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	if len(*slept) != 2 || (*slept)[0] != 3*time.Second || (*slept)[1] != 3*time.Second {
		t.Fatalf("backoff schedule %v, want two 3s waits from Retry-After", *slept)
	}
}

// TestRetryAfterCappedByMaxWait: a hostile or misconfigured Retry-After
// cannot park the client beyond its own cap.
func TestRetryAfterCappedByMaxWait(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3600")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"busy"}`)
	}))
	defer srv.Close()
	c, slept := fastClient(t, srv.URL, WithRetries(1), WithBackoff(time.Millisecond, 2*time.Second))
	_, err := c.Eval(context.Background(), EvalRequest{Values: []uint64{1}, Scheme: "gray"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("err = %v", err)
	}
	if apiErr.RetryAfter != 3600*time.Second {
		t.Fatalf("RetryAfter = %v", apiErr.RetryAfter)
	}
	if len(*slept) != 1 || (*slept)[0] != 2*time.Second {
		t.Fatalf("slept %v, want one capped 2s wait", *slept)
	}
}

// TestErrorTable: each failure class maps to the right typed error and
// retry decision.
func TestErrorTable(t *testing.T) {
	cases := []struct {
		name      string
		code      int
		body      string
		wantMsg   string
		wantCalls int64 // 1 = not retried
	}{
		{"504 deadline", http.StatusGatewayTimeout, `{"error":"evaluation exceeded the 30s request timeout"}`, "evaluation exceeded", 1},
		{"413 too large", http.StatusRequestEntityTooLarge, `{"error":"request body exceeds 8388608 bytes"}`, "request body exceeds", 1},
		{"400 validation", http.StatusBadRequest, `{"error":"unknown scheme kind"}`, "unknown scheme kind", 1},
		{"503 retried", http.StatusServiceUnavailable, `{"error":"server draining"}`, "server draining", 3},
		{"non-envelope body", http.StatusInternalServerError, `panic elsewhere`, "panic elsewhere", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				w.WriteHeader(tc.code)
				fmt.Fprint(w, tc.body)
			}))
			defer srv.Close()
			c, _ := fastClient(t, srv.URL, WithRetries(2))
			_, err := c.Eval(context.Background(), EvalRequest{Values: []uint64{1}, Scheme: "gray"})
			var apiErr *APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("err = %v, want *APIError", err)
			}
			if apiErr.StatusCode != tc.code {
				t.Fatalf("status = %d, want %d", apiErr.StatusCode, tc.code)
			}
			if got := apiErr.Message; tc.wantMsg != "" && !contains(got, tc.wantMsg) {
				t.Fatalf("message %q missing %q", got, tc.wantMsg)
			}
			if calls.Load() != tc.wantCalls {
				t.Fatalf("server saw %d calls, want %d", calls.Load(), tc.wantCalls)
			}
		})
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestMalformedResponseJSON: a 200 with a torn body is a decode error,
// not a silent zero value.
func TestMalformedResponseJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"scheme":"gray","energy_rem`)
	}))
	defer srv.Close()
	c, _ := fastClient(t, srv.URL)
	_, err := c.Eval(context.Background(), EvalRequest{Values: []uint64{1}, Scheme: "gray"})
	if err == nil || !contains(err.Error(), "decoding") {
		t.Fatalf("err = %v, want decode error", err)
	}
}

// TestConnectionErrorRetries: a refused connection is retried, then
// surfaced as the transport error.
func TestConnectionErrorRetries(t *testing.T) {
	c, slept := fastClient(t, "http://127.0.0.1:1", WithRetries(2), WithBackoff(time.Millisecond, time.Second))
	_, err := c.Eval(context.Background(), EvalRequest{Values: []uint64{1}, Scheme: "gray"})
	if err == nil {
		t.Fatal("dead server produced no error")
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %v, want 2 backoffs", *slept)
	}
	if (*slept)[1] != 2*(*slept)[0] {
		t.Fatalf("backoff not exponential: %v", *slept)
	}
}
