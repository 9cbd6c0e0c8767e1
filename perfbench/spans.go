package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans live in
// memory during the run and are written out at exit; a nil *recorder
// (untraced runs) records nothing and costs one nil check per call.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
	Req    int64  `json:"req,omitempty"` // request id, 0 outside serve loops
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span name's prefix before the first '.', e.g. "cpu" for
// "cpu.sim/li".
func (s span) layer() string {
	name, _, _ := strings.Cut(s.Name, ".")
	return name
}

// spanLimit bounds the spans kept in memory; serve-hit issues tens of
// thousands of requests per second. Spans past the limit are counted,
// not kept.
const spanLimit = 200_000

type recorder struct {
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

// newRecorder returns a recorder whose span ids start above base, so the
// spans of several child processes merge without collisions.
func newRecorder(base int64) *recorder {
	r := &recorder{}
	r.next.Store(base)
	return r
}

// newID reserves a span id, so children can name their parent before the
// parent span ends. It returns 0 on a nil recorder.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// add records a finished span under a previously reserved id.
func (r *recorder) add(id, parent, req int64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.append(span{ID: id, Parent: parent, Name: name, Start: start.UnixNano(), End: end.UnixNano(), Req: req})
}

// record reserves an id and records a finished span in one step.
func (r *recorder) record(parent, req int64, name string, start, end time.Time) int64 {
	id := r.newID()
	r.add(id, parent, req, name, start, end)
	return id
}

func (r *recorder) append(spans ...span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range spans {
		if len(r.spans) >= spanLimit {
			r.dropped++
			continue
		}
		r.spans = append(r.spans, s)
	}
}

func (r *recorder) snapshot() ([]span, int) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), r.dropped
}

// writeSpans writes one JSON object per span.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// layerTime is one layer's share of the traced run.
type layerTime struct {
	Layer   string
	Spans   int
	TotalMS float64
	SelfMS  float64
}

// selfTimes sums, per layer, span durations and self times. A span's self
// time is its duration minus its children's; children that overlap (a
// RunAll pass runs experiments concurrently) can exceed their parent, so
// self time is clamped at zero.
func selfTimes(spans []span) []layerTime {
	childSum := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	agg := map[string]*layerTime{}
	for _, s := range spans {
		l := agg[s.layer()]
		if l == nil {
			l = &layerTime{Layer: s.layer()}
			agg[s.layer()] = l
		}
		self := s.dur() - childSum[s.ID]
		if self < 0 {
			self = 0
		}
		l.Spans++
		l.TotalMS += msOf(s.dur())
		l.SelfMS += msOf(self)
	}
	out := make([]layerTime, 0, len(agg))
	for _, l := range agg {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// writeSelfTimes writes the per-layer summary as TSV.
func writeSelfTimes(w io.Writer, layers []layerTime, dropped int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "layer\tspans\ttotal_ms\tself_ms\n")
	for _, l := range layers {
		fmt.Fprintf(bw, "%s\t%d\t%.3f\t%.3f\n", l.Layer, l.Spans, l.TotalMS, l.SelfMS)
	}
	if dropped > 0 {
		fmt.Fprintf(bw, "# %d spans past the %d-span limit were not kept\n", dropped, spanLimit)
	}
	return bw.Flush()
}
