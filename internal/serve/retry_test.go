package serve

import (
	"testing"
	"time"
)

func TestEvalRetryAfter(t *testing.T) {
	cases := []struct {
		name    string
		mean    float64
		waiting int64
		workers int64
		timeout time.Duration
		want    int
	}{
		// No latency observed yet: fall back to the nominal timeout hint.
		{"cold fallback", 0, 10, 4, 5 * time.Second, 5},
		{"cold fallback capped", 0, 10, 4, 5 * time.Minute, maxRetryAfterSeconds},
		{"cold fallback no timeout", 0, 10, 4, 0, 1},
		// Memo-warm server: sub-millisecond means quote the 1s floor even
		// with a long configured timeout.
		{"warm floor", 0.0004, 60, 4, 5 * time.Minute, 1},
		// Saturated with genuinely slow work: quote the queue's drain time.
		{"slow drain", 2.0, 7, 4, 30 * time.Second, 4}, // (7+1)/4 * 2s = 4s
		{"slow drain capped", 10.0, 63, 2, 30 * time.Second, maxRetryAfterSeconds},
		{"no workers", 1.0, 5, 0, 8 * time.Second, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := evalRetryAfter(c.mean, c.waiting, c.workers, c.timeout); got != c.want {
				t.Fatalf("evalRetryAfter(%v, %d, %d, %v) = %d, want %d",
					c.mean, c.waiting, c.workers, c.timeout, got, c.want)
			}
		})
	}
}

func TestClampRetrySeconds(t *testing.T) {
	for _, c := range []struct {
		in   float64
		want int
	}{{-1, 1}, {0, 1}, {0.01, 1}, {1.2, 2}, {29.5, 30}, {1e9, maxRetryAfterSeconds}} {
		if got := clampRetrySeconds(c.in); got != c.want {
			t.Fatalf("clampRetrySeconds(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}
