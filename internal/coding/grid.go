package coding

import (
	"fmt"
	"slices"
	"sync/atomic"

	"buspower/internal/bus"
)

// Grid evaluation: one trace against a whole scheme/λ grid in a single
// grouped pass. The savings stack in two layers:
//
//   - λ fan-out: activity meters are Λ-independent (Λ enters only when a
//     Result's Cost is read), so grid cells that share a transcoder
//     configuration (ConfigKey) are encoded once and read at every
//     requested Λ. Figure 15's λ0/λ1 families collapse from one encode
//     per (assumed, actual) pair to one per assumed Λ.
//   - shared stride tape: every stride bank size replays one prediction
//     tape computed in a single pass (see StrideTape); a caller's tape
//     provider (GridOptions.Tapes) shares it across grids too.
//
// Every other configuration — raw, Gray, spatial, the enumerative
// coders, Window, Context, inversion and partial bus-invert — runs
// through the scalar Evaluator, still profiting from the ConfigKey
// dedupe. A one-cell grid is the single-point evaluation path too: the
// experiments layer evaluates every result-memo miss, serve and job
// requests included, as a grid, so a lone stride request replays a tape
// like a sweep does. Results are bit-identical to evaluating each cell
// individually (differential-tested by grid_test.go).

// GridCell is one evaluation request: a transcoder read at coupling
// ratio Lambda.
type GridCell struct {
	T      Transcoder
	Lambda float64
}

// evaluatedCycles counts (trace cycle × grid cell) units delivered by
// Evaluate/EvaluateGrid process-wide. Grouped passes deliver more cycles
// than they execute; perfbench's coding.useful_ratio reads that
// efficiency off this counter.
var evaluatedCycles atomic.Uint64

// EvaluatedCycles returns the process-wide count of evaluation cycles
// delivered: one unit per trace cycle per evaluated grid cell (a plain
// Evaluate counts as a one-cell grid). perfbench differences this
// around a suite pass to report suite-level throughput.
func EvaluatedCycles() uint64 { return evaluatedCycles.Load() }

// GridOptions customizes a grid evaluation's shared inputs.
type GridOptions struct {
	// Tapes, when non-nil, supplies a stride prediction tape of the
	// trace at the given width, at least k strides deep — what
	// NewStrideTape(width, k, trace) would build, or any deeper tape of
	// the same trace. Callers holding a tape cache (the experiments
	// layer's content-addressed tape memo) plug it in here so repeated
	// grids over the same named trace replay one tape instead of
	// rebuilding it; a nil return falls back to building one.
	Tapes func(width, k int) *StrideTape
}

// EvaluateGrid evaluates every cell against one trace. raw, when
// non-nil, is a pre-measured raw-bus meter (as from MeasureRawValues)
// for cells whose data width matches; other widths are measured here
// once each. verify applies to every cell exactly as in
// Evaluator.Evaluate; under VerifyFull the stride tape (which cannot run
// a live decoder over the whole stream) steps aside and every unique
// configuration runs the scalar full-verify path, still deduplicated.
// opts supplies shared inputs; the zero value builds them here.
//
// Results are cell-aligned. Cells sharing a configuration share Raw and
// Coded meter instances; callers that mutate or Reset a meter must
// Clone it first.
func EvaluateGrid[T bus.Value](cells []GridCell, trace []T, raw *bus.Meter, verify VerifyPolicy, opts GridOptions) ([]Result, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	results := make([]Result, len(cells))
	type group struct {
		t     Transcoder
		cells []int
	}
	groups := make(map[string]*group, len(cells))
	order := make([]*group, 0, len(cells))
	for i := range cells {
		t := cells[i].T
		if t == nil {
			return nil, fmt.Errorf("coding: grid cell %d has no transcoder", i)
		}
		key := ConfigKey(t)
		g := groups[key]
		if g == nil {
			g = &group{t: t}
			groups[key] = g
			order = append(order, g)
		}
		g.cells = append(g.cells, i)
	}

	rawMeters := make(map[int]*bus.Meter, 1)
	if raw != nil {
		rawMeters[raw.Width()] = raw
	}
	rawFor := func(width int) *bus.Meter {
		if m := rawMeters[width]; m != nil {
			return m
		}
		m := MeasureRaw(width, trace)
		rawMeters[width] = m
		return m
	}

	// One shared stride tape per data width, deep enough for the largest
	// bank in the grid.
	var tapes map[int]*StrideTape
	if verify.mode != verifyFull {
		var maxK map[int]int
		for _, g := range order {
			if st, ok := g.t.(*StrideTranscoder); ok && st.strides <= tapeMaxStrides && st.strides > maxK[st.width] {
				if maxK == nil {
					maxK = make(map[int]int, 1)
				}
				maxK[st.width] = st.strides
			}
		}
		if maxK != nil {
			tapes = make(map[int]*StrideTape, len(maxK))
			for w, k := range maxK {
				var tp *StrideTape
				if opts.Tapes != nil {
					tp = opts.Tapes(w, k)
				}
				if tp == nil {
					tp = NewStrideTape(w, k, trace)
				}
				tapes[w] = tp
			}
		}
	}

	ev := Evaluator{Verify: verify}
	n := uint64(len(trace))
	for _, g := range order {
		width := g.t.DataWidth()
		rawM := rawFor(width)
		var coded *bus.Meter
		var ops OpStats
		var codedWidth int
		// The stride tape is the grid's one fast path; tapes is nil under
		// VerifyFull, which needs a live decoder over the whole stream.
		var tp *StrideTape
		st, isStride := g.t.(*StrideTranscoder)
		if isStride {
			tp = tapes[st.width]
		}
		if tp != nil && st.strides <= tp.maxK {
			m, o, err := evaluateTape(tp, st, trace, verify)
			if err != nil {
				return nil, err
			}
			coded, ops, codedWidth = m, o, st.width+2
			evaluatedCycles.Add(n * uint64(len(g.cells)))
		} else {
			ev.Use(g.t)
			res, err := evaluate(&ev, trace, cells[g.cells[0]].Lambda, rawM)
			if err != nil {
				return nil, err
			}
			// Detach from the Evaluator's reused meter before the next group.
			coded = res.Coded.Clone()
			ops = res.Ops
			codedWidth = res.CodedWidth
			evaluatedCycles.Add(n * uint64(len(g.cells)-1)) // Evaluate counted one cell
		}
		name := g.t.Name()
		for _, ci := range g.cells {
			results[ci] = Result{
				Scheme:     name,
				DataWidth:  width,
				CodedWidth: codedWidth,
				Raw:        rawM,
				Coded:      coded,
				Lambda:     cells[ci].Lambda,
				Ops:        ops,
			}
		}
	}
	return results, nil
}

// tapeMaxStrides bounds the bank depth a uint8 tape record can encode;
// deeper banks (which no experiment uses) fall back to the scalar path.
const tapeMaxStrides = 250

// tapeRawRec marks a cycle no stride predicted.
const tapeRawRec = 0xFF

// StrideTape is the shared prediction record behind the grid's stride
// fan-out. The stride history ring is pushed unconditionally with every
// masked input value, so its contents — and therefore each stride-k
// prediction p_k(i) = (2·v[i-k] − v[i-2k]) mod 2^width, zero-padded
// before the trace starts — are identical across all bank sizes K. One
// pass records, per cycle, the minimal stride whose prediction matches
// (0 for a LAST-value hit, tapeRawRec for none); a size-K bank then
// replays the tape: record m = 0 sends code 0, 1 ≤ m ≤ K sends the
// bank's code for stride m (probing m predictors on the way), and
// anything deeper falls back to raw after probing all K. A tape of
// depth D therefore serves every bank of depth K ≤ D on its trace.
type StrideTape struct {
	width int
	maxK  int
	recs  []uint8
	hist  []uint64 // hist[0] = LAST hits, hist[m] = cycles with minimal stride m
	raws  uint64   // cycles with no match at any stride ≤ maxK
}

// Depth returns the deepest bank the tape serves.
func (tp *StrideTape) Depth() int { return tp.maxK }

// Bytes returns the memory the tape's records and histogram hold.
func (tp *StrideTape) Bytes() int { return cap(tp.recs) + 8*cap(tp.hist) }

// NewStrideTape records the stride prediction tape of trace at the given
// data width, maxK strides deep (clamped to the deepest bank a tape
// record can encode).
func NewStrideTape[T bus.Value](width, maxK int, trace []T) *StrideTape {
	maxK = min(maxK, tapeMaxStrides)
	tp := &StrideTape{
		width: width,
		maxK:  maxK,
		recs:  make([]uint8, len(trace)),
		hist:  make([]uint64, maxK+1),
	}
	mask := uint64(bus.Mask(width))
	var prev uint64
	for i, x := range trace {
		v := uint64(x) & mask
		if v == prev {
			tp.hist[0]++
			continue // recs[i] already 0
		}
		prev = v
		rec := strideMatch(trace, i, v, mask, 1, maxK)
		if rec == tapeRawRec {
			tp.raws++
		} else {
			tp.hist[rec]++
		}
		tp.recs[i] = rec
	}
	return tp
}

// DeepenStrideTape returns the tape maxK strides deep (clamped like
// NewStrideTape) for the trace tp was recorded from, identical to
// NewStrideTape(width, maxK, trace) but built from tp: a record that
// matched at a stride ≤ tp.Depth() keeps it — the minimal stride does
// not depend on the depth — and only the records raw at tp.Depth() probe
// the deeper strides. tp is left unchanged, since replays may be reading
// it concurrently; a tape already deep enough is returned as is.
func DeepenStrideTape[T bus.Value](tp *StrideTape, maxK int, trace []T) *StrideTape {
	maxK = min(maxK, tapeMaxStrides)
	if maxK <= tp.maxK {
		return tp
	}
	out := &StrideTape{
		width: tp.width,
		maxK:  maxK,
		recs:  slices.Clone(tp.recs),
		hist:  make([]uint64, maxK+1),
		raws:  tp.raws,
	}
	copy(out.hist, tp.hist)
	mask := uint64(bus.Mask(tp.width))
	for i, rec := range out.recs {
		if rec != tapeRawRec {
			continue
		}
		if rec = strideMatch(trace, i, uint64(trace[i])&mask, mask, tp.maxK+1, maxK); rec != tapeRawRec {
			out.recs[i] = rec
			out.hist[rec]++
			out.raws--
		}
	}
	return out
}

// strideMatch returns the smallest stride k in [from, to] whose
// prediction from trace's history before cycle i equals v (the masked
// trace[i]), or tapeRawRec. History before the trace start reads as 0.
func strideMatch[T bus.Value](trace []T, i int, v, mask uint64, from, to int) uint8 {
	for k := from; k <= to; k++ {
		var a, b uint64
		if j := i - k; j >= 0 {
			a = uint64(trace[j]) & mask
		}
		if j := i - 2*k; j >= 0 {
			b = uint64(trace[j]) & mask
		}
		if (a+(a-b))&mask == v {
			return uint8(k)
		}
	}
	return tapeRawRec
}

// evaluateTape replays the tape as a size-t.strides bank, producing the
// coded-bus meter and OpStats bit-identical to the scalar
// strideEncoder run (grid_test.go differentials).
func evaluateTape[T bus.Value](tp *StrideTape, t *StrideTranscoder, trace []T, verify VerifyPolicy) (*bus.Meter, OpStats, error) {
	ch := newChannel(t.width, t.lambda)
	coded := bus.NewMeterLite(ch.busWidth())
	stream := coded.Stream()
	st := &stream
	st.Record(0)
	mask := uint64(ch.dataMask)
	K := uint8(t.strides)
	codes := make([]bus.Word, t.strides+1)
	for m := 1; m <= t.strides; m++ {
		codes[m] = t.cb.Code(m)
	}
	recs := tp.recs
	n := len(trace)
	replay := func(i int) bus.Word {
		rec := recs[i]
		switch {
		case rec == 0:
			return ch.sendCode(0)
		case rec <= K:
			return ch.sendCode(codes[rec])
		default:
			w, _ := ch.sendRaw(uint64(trace[i]) & mask)
			return w
		}
	}
	head := 0
	if verify.mode == verifySampled {
		head = min(VerifyWindow, n)
		dec := t.NewDecoder()
		for i := 0; i < head; i++ {
			w := replay(i)
			v := uint64(trace[i]) & mask
			if got := dec.Decode(w); got != v {
				return nil, OpStats{}, fmt.Errorf("coding: %s decoder diverged at cycle %d: sent %#x, decoded %#x", t.Name(), i, v, got)
			}
			st.Record(w)
		}
	}
	ch.beginBlock()
	for i := head; i < n; i++ {
		rec := recs[i]
		switch {
		case rec == 0:
			// LAST hit: the all-zero code moves nothing.
		case rec <= K:
			ch.sendCode(codes[rec])
		default:
			ch.sendRaw(uint64(trace[i]) & mask)
		}
	}
	st.AddBlock(uint64(n-head), ch.accT, ch.accC, ch.state)
	st.Flush()
	if verify.mode == verifySampled {
		if err := verifySample(t, trace, verify.every, t.NewEncoder(), t.NewDecoder()); err != nil {
			return nil, OpStats{}, err
		}
	}
	// OpStats from the tape's minimal-stride histogram: a size-K bank
	// code-sends every minimal stride ≤ K (probing m predictors), raw-sends
	// the rest (probing all K), and LAST hits probe nothing.
	ops := OpStats{Cycles: uint64(n), LastHits: tp.hist[0]}
	var codeSends, probes uint64
	for m := 1; m <= t.strides; m++ {
		codeSends += tp.hist[m]
		probes += tp.hist[m] * uint64(m)
	}
	rawSends := tp.raws
	for m := t.strides + 1; m <= tp.maxK; m++ {
		rawSends += tp.hist[m]
	}
	ops.CodeSends = codeSends
	ops.RawSends = rawSends
	ops.PartialMatches = probes + rawSends*uint64(t.strides)
	return coded, ops, nil
}
