// Package coding implements the paper's bus transcoding schemes: circuits
// at either end of a long bus that re-code traffic to minimize wire
// transitions and cross-coupling events.
//
// An Encoder consumes the stream of data values that would have been sent
// on the bus and produces the absolute wire state of the (possibly wider)
// coded bus each cycle; a Decoder observes only that wire state and
// reconstructs the original values. Encoder and decoder run synchronously
// and deterministically, so arbitrarily complicated shared state stays
// consistent — the encoder FSM keys its transitions off the input stream,
// the decoder FSM off the (decoded) output stream, exactly as in Figure 1
// of the paper.
//
// Implemented schemes (paper §4.3):
//
//   - Raw: the identity baseline (un-encoded bus).
//   - Spatial: one-hot transition coding on a 2^W-wire bus.
//   - Inversion: generalized inversion coding with a configurable pattern
//     set and a cost function parameterized by the assumed Λ (λ0, λ1, λN
//     of Figure 15); classic Bus-Invert is the 2-pattern special case.
//   - Stride: a bank of stride predictors with confidence-ordered codes.
//   - Window: a shift-register dictionary of recent unique values.
//   - Context: a frequency table + window front-end, in value-based and
//     transition-based flavours, kept sorted by the paper's pending-bit
//     neighbour-swap algorithm with periodic counter division.
//
// All stateful schemes fold in LAST-value prediction: the all-zero
// codeword (which expends no energy under transition coding) means "same
// value as the previous cycle".
//
// Window, Context, stride and inversion write their per-cycle algorithm
// once, as a bulk loop over a block of values (encodeBlock); Encode runs
// that loop on a one-value block. Every evaluation runs one sequence: a
// live-verified window through Encode and the decoder, the rest of the
// trace through the bulk loop, then the sampled replay (see
// VerifyPolicy). Stride's bulk loop replays the grid's shared prediction
// tape when one is attached (see StrideTape).
package coding

import (
	"fmt"

	"buspower/internal/bus"
)

// Encoder turns input data values into absolute coded-bus wire states.
type Encoder interface {
	// Encode accepts the next data value and returns the wire state the
	// coded bus settles to this cycle.
	Encode(value uint64) bus.Word
	// BusWidth returns the total number of wires of the coded bus,
	// including control wires.
	BusWidth() int
	// Reset returns the encoder to its initial state.
	Reset()
}

// Decoder reconstructs data values from observed coded-bus wire states.
type Decoder interface {
	// Decode accepts the bus wire state for one cycle and returns the data
	// value the encoder was given.
	Decode(w bus.Word) uint64
	// Reset returns the decoder to its initial state.
	Reset()
}

// blockEncoder is implemented by the encoders whose per-cycle algorithm
// is written once, as a bulk loop: encodeBlock runs vals through it and
// returns the block's Σ transition and coupling counts and the coded bus
// state after its last value. Their Encode is that loop over a one-value
// block, so the per-value and bulk paths cannot drift apart. Evaluate
// runs the unverified stretches of a trace through it, folding each
// block into its meter with one MeterStream.AddBlock instead of a
// per-cycle record and interface call; a 32-bit trace reaches it through
// the Evaluator's widening block, wideBlock values per call.
type blockEncoder interface {
	encodeBlock(vals []uint64) (transitions, couplings uint64, last bus.Word)
}

// OpReporter is implemented by encoders that track the hardware operations
// (match probes, shifts, counter activity, ...) they would perform, for
// the circuit-level energy model of §5.
type OpReporter interface {
	Ops() OpStats
}

// Transcoder constructs matched encoder/decoder pairs.
type Transcoder interface {
	// Name identifies the scheme, e.g. "window-8".
	Name() string
	// DataWidth returns the width in bits of the data values transported.
	DataWidth() int
	// NewEncoder returns a fresh encoder in its initial state.
	NewEncoder() Encoder
	// NewDecoder returns a fresh decoder in its initial state.
	NewDecoder() Decoder
}

// OpStats counts the energy-consuming hardware operations of §5.3.2
// performed by an encoder over a run. The circuit package converts these
// to pJ using per-technology operation energies.
type OpStats struct {
	// Cycles is the number of values encoded.
	Cycles uint64
	// PartialMatches counts selective-precharge probes that compared only
	// the low-order bits of an entry before mismatching.
	PartialMatches uint64
	// FullMatches counts probes that went on to compare the full entry.
	FullMatches uint64
	// Shifts counts shift-register insertions (pointer-based: one entry
	// rewritten per shift).
	Shifts uint64
	// CounterIncrements counts Johnson-counter increments.
	CounterIncrements uint64
	// CounterCompares counts adjacent-entry counter equality comparisons.
	CounterCompares uint64
	// Swaps counts neighbour entry swaps in the sorted frequency table.
	Swaps uint64
	// TableWrites counts frequency-table entry replacements.
	TableWrites uint64
	// CodeSends counts cycles resolved by a dictionary/predictor code.
	CodeSends uint64
	// RawSends counts cycles that fell back to raw (or inverted raw) data.
	RawSends uint64
	// LastHits counts cycles resolved by LAST-value prediction (code 0).
	LastHits uint64
}

// Add accumulates other into s.
func (s *OpStats) Add(other OpStats) {
	s.Cycles += other.Cycles
	s.PartialMatches += other.PartialMatches
	s.FullMatches += other.FullMatches
	s.Shifts += other.Shifts
	s.CounterIncrements += other.CounterIncrements
	s.CounterCompares += other.CounterCompares
	s.Swaps += other.Swaps
	s.TableWrites += other.TableWrites
	s.CodeSends += other.CodeSends
	s.RawSends += other.RawSends
	s.LastHits += other.LastHits
}

// Result summarizes the effect of transcoding a trace.
type Result struct {
	// Scheme is the transcoder name.
	Scheme string
	// DataWidth and CodedWidth are the raw and coded bus widths in wires.
	DataWidth, CodedWidth int
	// Raw and Coded hold the activity meters of the un-encoded and coded
	// buses respectively.
	Raw, Coded *bus.Meter
	// Lambda is the coupling ratio the meters were evaluated with.
	Lambda float64
	// Ops holds the encoder's hardware operation counts, if reported.
	Ops OpStats
}

// RawCost returns the Λ-weighted activity of the un-encoded bus.
func (r Result) RawCost() float64 { return r.Raw.Cost(r.Lambda) }

// CodedCost returns the Λ-weighted activity of the coded bus.
func (r Result) CodedCost() float64 { return r.Coded.Cost(r.Lambda) }

// EnergyRemoved returns the fraction of Λ-weighted bus activity the
// transcoder eliminated (the paper's "normalized energy removed", in
// [ -inf, 1 ]; negative values mean the coding added activity). It
// returns 0 when the raw trace had no activity.
func (r Result) EnergyRemoved() float64 {
	raw := r.RawCost()
	if raw == 0 {
		return 0
	}
	return 1 - r.CodedCost()/raw
}

// EnergyRemaining returns CodedCost/RawCost (the paper's "normalized
// energy percentage remaining" of Figure 15), or 1 when the raw trace had
// no activity.
func (r Result) EnergyRemaining() float64 {
	raw := r.RawCost()
	if raw == 0 {
		return 1
	}
	return r.CodedCost() / raw
}

// MeasureRawValues meters the un-encoded bus carrying the given data
// values: power-up in the all-zero state, then one beat per value (masked
// to the bus width). This is exactly the Raw meter Evaluate computes. The
// raw measurement is Λ-independent (Λ enters only in Cost), so sweeps can
// measure each (trace, width) once and share the meter across every
// scheme and Λ (Evaluator.Evaluate and EvaluateGrid take it as raw).
func MeasureRawValues(width int, trace []uint64) *bus.Meter { return MeasureRaw(width, trace) }

// MeasureRaw is MeasureRawValues over either value-stream form: the
// 32-bit workload traces or 64-bit synthetic values.
func MeasureRaw[T bus.Value](width int, trace []T) *bus.Meter {
	m := bus.NewMeterLite(width)
	m.Record(0)
	bus.RecordValues(m, trace)
	return m
}

// Evaluate runs the transcoder over the trace, verifies that the decoder
// reconstructs every value exactly, and returns activity meters for the
// raw and coded buses computed with coupling ratio lambda.
//
// It returns an error (never a silent wrong answer) if the decoder output
// diverges from the encoder input at any cycle.
func Evaluate[T bus.Value](t Transcoder, trace []T, lambda float64) (Result, error) {
	var ev Evaluator
	ev.Use(t)
	return evaluate(&ev, trace, lambda, nil)
}

// Evaluator runs transcoder evaluations while reusing encoder/decoder
// state (via Reset), its coded-bus meter and its verification scratch
// across calls, so a sweep's inner loop allocates nothing per evaluation
// beyond what a freshly built transcoder itself requires.
//
// Verify selects the decoder round-trip policy for Evaluate; the zero
// value is VerifyFull (see VerifyPolicy).
type Evaluator struct {
	// Verify is the decoder round-trip policy applied by Evaluate.
	Verify VerifyPolicy

	t      Transcoder
	key    string // ConfigKey(t)
	enc    Encoder
	dec    Decoder
	width  int
	mask   uint64
	coded  *bus.Meter      // reused coded-bus meter; see Evaluate's ownership note
	stream bus.MeterStream // reused chunked recorder over coded (large value; kept
	// here so passing its address to encodeRun never forces a heap copy)
	venc Encoder            // replay codec for sampled verification, built
	vdec Decoder            // lazily on the first sampled Evaluate that needs it
	wide *[wideBlock]uint64 // widening block, allocated on first use
}

// wideBlock is the size of the Evaluator's widening block: a 32-bit
// trace reaches a bulk encoder's encodeBlock([]uint64) through it,
// wideBlock values per call, so no evaluation copies a whole trace.
const wideBlock = 4096

// Use selects the transcoder for subsequent Evaluate calls. A fresh
// encoder/decoder pair is constructed only when t's configuration
// (ConfigKey) differs from the one already in use — semantically
// identical transcoders rebuilt by a sweep's inner loop reuse the
// existing scratch instead of reallocating.
func (ev *Evaluator) Use(t Transcoder) {
	if ev.enc != nil && ev.t == t {
		return
	}
	key := ConfigKey(t)
	if ev.enc != nil && key == ev.key {
		ev.t = t // equal keys encode identically; adopt the new instance
		return
	}
	ev.t = t
	ev.key = key
	ev.enc = t.NewEncoder()
	ev.dec = t.NewDecoder()
	ev.venc, ev.vdec = nil, nil
	ev.coded = nil
	ev.width = t.DataWidth()
	ev.mask = uint64(bus.Mask(ev.width))
}

// codedMeter returns the evaluator's reused Σ-only coded-bus meter, reset
// and sized to the current encoder's bus width.
func (ev *Evaluator) codedMeter() *bus.Meter {
	w := ev.enc.BusWidth()
	if ev.coded == nil || ev.coded.Width() != w {
		ev.coded = bus.NewMeterLite(w)
	} else {
		ev.coded.Reset()
	}
	return ev.coded
}

func checkRaw[T bus.Value](ev *Evaluator, trace []T, raw *bus.Meter) (*bus.Meter, error) {
	if raw == nil {
		return MeasureRaw(ev.width, trace), nil
	}
	if raw.Width() != ev.width {
		return nil, fmt.Errorf("coding: shared raw meter width %d != %s data width %d", raw.Width(), ev.t.Name(), ev.width)
	}
	return raw, nil
}

func (ev *Evaluator) result(raw, coded *bus.Meter, lambda float64) Result {
	res := Result{
		Scheme:     ev.t.Name(),
		DataWidth:  ev.width,
		CodedWidth: ev.enc.BusWidth(),
		Raw:        raw,
		Coded:      coded,
		Lambda:     lambda,
	}
	if or, ok := ev.enc.(OpReporter); ok {
		res.Ops = or.Ops()
	}
	return res
}

func (ev *Evaluator) divergence(i int, sent, got uint64) error {
	return fmt.Errorf("coding: %s decoder diverged at cycle %d: sent %#x, decoded %#x", ev.t.Name(), i, sent, got)
}

// Evaluate runs the selected transcoder over the trace from its initial
// state (the encoder/decoder are Reset, not reallocated), metering each
// coded word as the encoder produces it — the coded trace is never
// buffered. The decoder round-trip self-check follows ev.Verify; every
// policy yields a bit-identical Result (see VerifyPolicy).
//
// raw, when non-nil, is a pre-measured raw-bus meter for this trace at
// the transcoder's data width; nil measures it here.
//
// Ownership: the returned Result's Coded meter belongs to the Evaluator
// and is overwritten by the next Evaluate call. Callers that retain
// Results past that point must detach it with Result.Coded.Clone() (or
// use the package-level Evaluate, whose throwaway Evaluator never reuses
// it).
func (ev *Evaluator) Evaluate(trace []uint64, lambda float64, raw *bus.Meter) (Result, error) {
	return evaluate(ev, trace, lambda, raw)
}

// evaluate is Evaluator.Evaluate over either value-stream form; every
// evaluation entry point runs through it.
func evaluate[T bus.Value](ev *Evaluator, trace []T, lambda float64, raw *bus.Meter) (Result, error) {
	if ev.t == nil {
		return Result{}, fmt.Errorf("coding: Evaluator has no transcoder (call Use first)")
	}
	ev.enc.Reset()
	raw, err := checkRaw(ev, trace, raw)
	if err != nil {
		return Result{}, err
	}
	coded := ev.codedMeter()
	// The coded bus powers up in the all-zero state (the encoder's initial
	// channel state), so the first word sent is charged like any other.
	st := &ev.stream
	coded.StreamInto(st)
	st.Record(0)
	live := 0 // leading cycles checked against the live decoder
	switch ev.Verify.mode {
	case verifyFull:
		live = len(trace)
	case verifySampled:
		live = min(VerifyWindow, len(trace))
	}
	if live > 0 {
		ev.dec.Reset()
		for i, x := range trace[:live] {
			v := uint64(x) & ev.mask
			w := ev.enc.Encode(v)
			if got := ev.dec.Decode(w); got != v {
				return Result{}, ev.divergence(i, v, got)
			}
			st.Record(w)
		}
	}
	encodeRun(ev, trace[live:], st)
	if ev.Verify.mode == verifySampled && len(trace) > live {
		if ev.venc == nil {
			ev.venc, ev.vdec = ev.t.NewEncoder(), ev.t.NewDecoder()
		}
		if err := verifySample(ev.t, trace, ev.Verify.every, ev.venc, ev.vdec); err != nil {
			return Result{}, err
		}
	}
	st.Flush()
	evaluatedCycles.Add(uint64(len(trace)))
	return ev.result(raw, coded, lambda), nil
}

// encodeRun encodes vals unverified into st, in blocks when the encoder
// supports it. 64-bit values go to encodeBlock as they are; narrower
// ones are widened through ev.wide one block at a time.
func encodeRun[T bus.Value](ev *Evaluator, vals []T, st *bus.MeterStream) {
	se, ok := ev.enc.(blockEncoder)
	if !ok {
		for _, v := range vals {
			st.Record(ev.enc.Encode(uint64(v) & ev.mask))
		}
		return
	}
	if wide, ok := any(vals).([]uint64); ok {
		tr, cp, last := se.encodeBlock(wide)
		st.AddBlock(uint64(len(wide)), tr, cp, last)
		return
	}
	if ev.wide == nil {
		ev.wide = new([wideBlock]uint64)
	}
	for len(vals) > 0 {
		blk := ev.wide[:min(len(vals), wideBlock)]
		for i := range blk {
			blk[i] = uint64(vals[i])
		}
		tr, cp, last := se.encodeBlock(blk)
		st.AddBlock(uint64(len(blk)), tr, cp, last)
		vals = vals[len(blk):]
	}
}

// MustEvaluate is Evaluate but panics on decoder divergence; for use in
// experiments where divergence is a programming error.
func MustEvaluate[T bus.Value](t Transcoder, trace []T, lambda float64) Result {
	res, err := Evaluate(t, trace, lambda)
	if err != nil {
		panic(err)
	}
	return res
}

func checkWidth(width int) {
	if width < 1 || width > 62 {
		panic(fmt.Sprintf("coding: data width %d outside [1, 62] (need 2 control wires within a 64-bit bus word)", width))
	}
}
