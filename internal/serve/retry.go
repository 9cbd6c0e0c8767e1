package serve

import (
	"math"
	"time"
)

// Retry-After estimation. The eval pool computes its hint from its own
// observed state instead of parroting the configured request timeout.

// maxRetryAfterSeconds caps the 429 back-off hint: a server run with a
// long full-mode -timeout (minutes) is telling clients how long one
// evaluation may take, not how long the queue needs to drain — without
// the cap, shed clients would be told to go away for the whole timeout.
const maxRetryAfterSeconds = 30

// clampRetrySeconds rounds a drain estimate up to whole seconds in
// [1, maxRetryAfterSeconds].
func clampRetrySeconds(secs float64) int {
	if !(secs > 0) { // NaN and negatives land here too
		return 1
	}
	n := int(math.Ceil(secs))
	if n < 1 {
		n = 1
	}
	if n > maxRetryAfterSeconds {
		n = maxRetryAfterSeconds
	}
	return n
}

// nominalRetrySeconds is the fallback before any latency or throughput
// has been observed: one request-timeout's worth of back-off, clamped.
func nominalRetrySeconds(timeout time.Duration) int {
	if timeout <= 0 {
		return 1
	}
	return clampRetrySeconds(timeout.Seconds())
}

// evalRetryAfter estimates the sync pool's drain time when a request is
// shed: the queue holds `waiting` requests plus the retrying one,
// spread over `workers` slots, each occupied for the observed mean
// evaluation latency. A memo-warm server quotes ~1s even with a long
// configured timeout; a cold one saturated with multi-second
// evaluations quotes proportionally more.
func evalRetryAfter(meanSeconds float64, waiting, workers int64, timeout time.Duration) int {
	if meanSeconds <= 0 || workers < 1 {
		return nominalRetrySeconds(timeout)
	}
	return clampRetrySeconds(float64(waiting+1) / float64(workers) * meanSeconds)
}

// evalRetryAfterSeconds feeds evalRetryAfter from the live server: mean
// /v1/eval latency from the metrics histogram, queue length from the
// pool.
func (s *Server) evalRetryAfterSeconds() int {
	var mean float64
	if h, ok := s.metrics.durations["eval"]; ok {
		mean = h.mean()
	}
	_, waiting, _ := s.pool.stats()
	return evalRetryAfter(mean, waiting, int64(s.opts.Workers), s.opts.RequestTimeout)
}
