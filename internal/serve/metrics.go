package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"buspower/internal/experiments"
	"buspower/internal/jobs"
	"buspower/internal/workload"
)

// A small dependency-free metrics registry rendering the Prometheus text
// exposition format. Counters and histograms are updated on the request
// path with atomics only; gauges are read at scrape time from callbacks
// (the memo and trace-cache Stats snapshots are themselves wait-free, so
// a scrape never contends with in-flight evaluations).

// durationBuckets are the latency histogram's upper bounds in seconds:
// memo hits land in the sub-millisecond buckets, cold full-trace
// evaluations in the hundreds of milliseconds, cold simulations above.
var durationBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.25, 1, 2.5, 10, 30}

// counterVec is a labelled set of monotone counters.
type counterVec struct {
	mu   sync.Mutex
	vals map[string]*atomic.Uint64
}

func newCounterVec() *counterVec { return &counterVec{vals: map[string]*atomic.Uint64{}} }

func (c *counterVec) get(labels string) *atomic.Uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.vals[labels]
	if !ok {
		v = &atomic.Uint64{}
		c.vals[labels] = v
	}
	return v
}

func (c *counterVec) snapshot() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.vals))
	for k, v := range c.vals {
		out[k] = v.Load()
	}
	return out
}

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	counts []atomic.Uint64 // one per bucket, cumulative style computed at render
	sumNS  atomic.Int64
	total  atomic.Uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Uint64, len(durationBuckets))}
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	for i, ub := range durationBuckets {
		if s <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.sumNS.Add(int64(d))
	h.total.Add(1)
}

// mean returns the average observed latency in seconds (0 before the
// first observation) — the drain-time input to evalRetryAfter.
func (h *histogram) mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNS.Load()).Seconds() / float64(n)
}

// metrics is the server's registry.
type metrics struct {
	requests  *counterVec // labels: handler, code
	durations map[string]*histogram
	started   time.Time
}

func newMetrics(handlers []string) *metrics {
	m := &metrics{requests: newCounterVec(), durations: map[string]*histogram{}, started: time.Now()}
	for _, h := range handlers {
		m.durations[h] = newHistogram()
	}
	return m
}

func (m *metrics) record(handler string, code int, elapsed time.Duration) {
	m.requests.get(fmt.Sprintf(`handler=%q,code="%d"`, handler, code)).Add(1)
	if h, ok := m.durations[handler]; ok {
		h.observe(elapsed)
	}
}

// render writes the whole exposition; s supplies the pool, job-engine
// and response-cache gauges.
func (m *metrics) render(w http.ResponseWriter, s *Server) {
	p, e := s.pool, s.jobs
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder

	b.WriteString("# HELP buspower_requests_total HTTP requests served, by handler and status code.\n")
	b.WriteString("# TYPE buspower_requests_total counter\n")
	reqs := m.requests.snapshot()
	keys := make([]string, 0, len(reqs))
	for k := range reqs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "buspower_requests_total{%s} %d\n", k, reqs[k])
	}

	b.WriteString("# HELP buspower_request_duration_seconds Request latency, by handler.\n")
	b.WriteString("# TYPE buspower_request_duration_seconds histogram\n")
	handlers := make([]string, 0, len(m.durations))
	for h := range m.durations {
		handlers = append(handlers, h)
	}
	sort.Strings(handlers)
	for _, name := range handlers {
		h := m.durations[name]
		cum := uint64(0)
		for i, ub := range durationBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(&b, "buspower_request_duration_seconds_bucket{handler=%q,le=%q} %d\n", name, trimFloat(ub), cum)
		}
		total := h.total.Load()
		fmt.Fprintf(&b, "buspower_request_duration_seconds_bucket{handler=%q,le=\"+Inf\"} %d\n", name, total)
		fmt.Fprintf(&b, "buspower_request_duration_seconds_sum{handler=%q} %g\n", name, time.Duration(h.sumNS.Load()).Seconds())
		fmt.Fprintf(&b, "buspower_request_duration_seconds_count{handler=%q} %d\n", name, total)
	}

	// Pool gauges: current saturation state plus cumulative sheds.
	inflight, waiting, rejected := p.stats()
	gauge := func(name, help string, v interface{}) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	gauge("buspower_pool_inflight", "Evaluations currently executing.", inflight)
	gauge("buspower_pool_waiting", "Requests queued for a worker slot.", waiting)
	fmt.Fprintf(&b, "# HELP buspower_pool_rejected_total Requests shed with 429 because the queue was full.\n# TYPE buspower_pool_rejected_total counter\nbuspower_pool_rejected_total %d\n", rejected)

	// Cache and memo effectiveness, wired straight from the engine's own
	// wait-free Stats counters. These are cumulative process-lifetime
	// values exposed as gauges because external resets (memo eviction,
	// ClearEvalMemo) can move some of them non-monotonically.
	ts := workload.Stats()
	gauge("buspower_trace_cache_mem_hits", "In-process trace cache hits.", ts.MemHits)
	gauge("buspower_trace_cache_mem_misses", "In-process trace cache misses (simulations started).", ts.MemMisses)
	gauge("buspower_trace_cache_disk_hits", "Persistent trace cache hits.", ts.DiskHits)
	gauge("buspower_trace_cache_disk_misses", "Persistent trace cache misses.", ts.DiskMisses)
	gauge("buspower_trace_cache_disk_errors", "Persistent trace cache entries that could not be trusted plus failed writes.", ts.DiskErrors)

	// Serve-level response byte cache.
	rcHits, rcMisses, rcEvictions, rcEntries := s.respCache.stats()
	gauge("buspower_response_cache_hits", "Marshalled-response cache hits.", rcHits)
	gauge("buspower_response_cache_misses", "Marshalled-response cache misses.", rcMisses)
	gauge("buspower_response_cache_evictions", "Marshalled-response cache LRU evictions.", rcEvictions)
	gauge("buspower_response_cache_entries", "Marshalled-response cache current entries.", rcEntries)

	es := experiments.EvalMemoStats()
	gauge("buspower_eval_memo_hits", "Evaluation-result memo hits.", es.Hits)
	gauge("buspower_eval_memo_misses", "Evaluation-result memo misses.", es.Misses)
	gauge("buspower_eval_memo_evictions", "Evaluation-result memo LRU evictions.", es.Evictions)
	gauge("buspower_eval_memo_entries", "Evaluation-result memo current entries.", es.Size)
	gauge("buspower_eval_memo_inflight", "Evaluation-result memo computations in flight.", es.InFlight)

	rs := experiments.RawMeterMemoStats()
	gauge("buspower_raw_meter_memo_hits", "Shared raw-bus meter memo hits.", rs.Hits)
	gauge("buspower_raw_meter_memo_misses", "Shared raw-bus meter memo misses.", rs.Misses)

	sl := experiments.SlicedCacheStats()
	gauge("buspower_sliced_plane_cache_hits", "Sliced-plane (bit-transposed trace) cache hits.", sl.Hits)
	gauge("buspower_sliced_plane_cache_misses", "Sliced-plane cache misses (transpositions built).", sl.Misses)
	gauge("buspower_sliced_plane_cache_entries", "Sliced-plane cache current entries.", sl.Size)

	// Async job engine: lifecycle census, worker-pool saturation and
	// journal health. Items-completed is the throughput counter — its
	// rate() is items/s.
	if e != nil {
		es := e.Stats()
		ss := e.StoreStats()
		b.WriteString("# HELP buspower_jobs Jobs resident in the store, by lifecycle state.\n# TYPE buspower_jobs gauge\n")
		for _, st := range []jobs.State{jobs.StatePending, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCancelled} {
			fmt.Fprintf(&b, "buspower_jobs{state=%q} %d\n", string(st), ss.JobsByState[st])
		}
		gauge("buspower_jobs_queue_depth", "Job items waiting for a job worker.", es.QueueDepth)
		gauge("buspower_jobs_workers", "Dedicated job worker pool size.", es.Workers)
		fmt.Fprintf(&b, "# HELP buspower_jobs_items_completed_total Job items finished since start (done, failed or cancelled).\n# TYPE buspower_jobs_items_completed_total counter\nbuspower_jobs_items_completed_total %d\n", es.ItemsCompleted)
		gauge("buspower_jobs_journal_bytes", "Current job journal size in bytes.", ss.JournalBytes)
		fmt.Fprintf(&b, "# HELP buspower_jobs_journal_compactions_total Journal snapshot compactions performed.\n# TYPE buspower_jobs_journal_compactions_total counter\nbuspower_jobs_journal_compactions_total %d\n", ss.Compactions)
		gauge("buspower_jobs_journal_recovered_bytes", "Journal bytes discarded by corruption recovery at startup.", ss.RecoveredBytes)
	}

	gauge("buspower_uptime_seconds", "Seconds since the server started.", int64(time.Since(m.started).Seconds()))

	w.Write([]byte(b.String()))
}

// trimFloat formats a bucket bound the way Prometheus expects ("0.005").
func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", f), "0"), ".")
}
