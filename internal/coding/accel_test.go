package coding

import (
	"testing"

	"buspower/internal/bus"
)

// The Window and Context dictionaries find entries by walking
// partial-match rows, and above rowsMaxSlots by a hash index; the choice
// is a pure acceleration: every observable — encoded words, decoded
// values, OpStats — must match exactly. These tests build both
// structures for the same transcoder and difference them, at sizes on
// both sides of the crossover.

// forcedPair returns an encoder/decoder pair for a Window or Context
// transcoder whose dictionaries find entries with the hash index
// (indexed) or by the row walk alone, whatever their size.
func forcedPair(tc Transcoder, indexed bool) (Encoder, Decoder) {
	enc, dec := tc.NewEncoder(), tc.NewDecoder()
	switch t := tc.(type) {
	case *WindowTranscoder:
		enc.(*windowEncoder).st = newWindowStateIndexed(t.entries, indexed)
		dec.(*windowDecoder).st = newWindowStateIndexed(t.entries, indexed)
	case *ContextTranscoder:
		enc.(*contextEncoder).st = newContextStateIndexed(t.cfg, indexed)
		dec.(*contextDecoder).st = newContextStateIndexed(t.cfg, indexed)
	default:
		panic("forcedPair: not a dictionary transcoder")
	}
	return enc, dec
}

// fuzzValues derives a value stream with a deliberately small alphabet
// from raw fuzz bytes, so dictionary hits, evictions, swaps and counter
// traffic all occur within a short trace.
func fuzzValues(data []byte) []uint64 {
	if len(data) > 600 {
		data = data[:600]
	}
	vals := make([]uint64, 0, len(data))
	for i, b := range data {
		v := uint64(b) | uint64(data[(i*7+3)%len(data)])<<8
		if b&3 == 0 && i > 0 {
			v = vals[i-1] // LAST-value repeats
		}
		vals = append(vals, v)
	}
	return vals
}

// accelConfigs returns the transcoder builders the differential tests
// cover: window and context (both flavours), including a table crossing
// the 64-entry pending-bitset word boundary, a short divide period, and
// dictionaries on either side of the rowsMaxSlots crossover.
func accelConfigs() map[string]func() (Transcoder, error) {
	return map[string]func() (Transcoder, error){
		"window-3":  func() (Transcoder, error) { return NewWindow(16, 3, 1) },
		"window-20": func() (Transcoder, error) { return NewWindow(16, 20, 1) },
		"window-crossover": func() (Transcoder, error) {
			return NewWindow(16, rowsMaxSlots, 1)
		},
		"window-crossover+1": func() (Transcoder, error) {
			return NewWindow(16, rowsMaxSlots+1, 1)
		},
		"context-value-crossover": func() (Transcoder, error) {
			return NewContext(ContextConfig{Width: 16, TableSize: rowsMaxSlots - 8, ShiftEntries: 8, DividePeriod: 256, Lambda: 1})
		},
		"context-transition-crossover+1": func() (Transcoder, error) {
			return NewContext(ContextConfig{Width: 16, TableSize: rowsMaxSlots - 7, ShiftEntries: 8, DividePeriod: 256, TransitionBased: true, Lambda: 1})
		},
		"context-value-t8-s4": func() (Transcoder, error) {
			return NewContext(ContextConfig{Width: 16, TableSize: 8, ShiftEntries: 4, DividePeriod: 64, Lambda: 1})
		},
		"context-transition-t6-s3": func() (Transcoder, error) {
			return NewContext(ContextConfig{Width: 16, TableSize: 6, ShiftEntries: 3, DividePeriod: 32, TransitionBased: true, Lambda: 1})
		},
		"context-value-t70-s8": func() (Transcoder, error) {
			return NewContext(ContextConfig{Width: 16, TableSize: 70, ShiftEntries: 8, DividePeriod: 128, Lambda: 1})
		},
	}
}

// diffPaths drives the row-walk and hash-index implementations of one
// transcoder in lockstep over vals, halting on any observable divergence.
// Both pairs are Reset mid-stream to cover the acceleration structures'
// reset paths.
func diffPaths(t *testing.T, name string, build func() (Transcoder, error), vals []uint64) {
	t.Helper()
	tc, err := build()
	if err != nil {
		t.Fatalf("%s: build: %v", name, err)
	}
	refEnc, refDec := forcedPair(tc, false)
	accEnc, accDec := forcedPair(tc, true)
	mask := uint64(bus.Mask(tc.DataWidth()))
	for i, v := range vals {
		if i == len(vals)/2 {
			refEnc.Reset()
			refDec.Reset()
			accEnc.Reset()
			accDec.Reset()
		}
		v &= mask
		rw := refEnc.Encode(v)
		aw := accEnc.Encode(v)
		if rw != aw {
			t.Fatalf("%s: encoded words diverged at cycle %d: rows %#x, index %#x", name, i, rw, aw)
		}
		if got := refDec.Decode(rw); got != v {
			t.Fatalf("%s: row-walk round-trip broke at cycle %d: %#x != %#x", name, i, got, v)
		}
		if got := accDec.Decode(aw); got != v {
			t.Fatalf("%s: indexed round-trip broke at cycle %d: %#x != %#x", name, i, got, v)
		}
	}
	refOps := refEnc.(OpReporter).Ops()
	accOps := accEnc.(OpReporter).Ops()
	if refOps != accOps {
		t.Fatalf("%s: OpStats diverged:\nrows  %+v\nindex %+v", name, refOps, accOps)
	}
	for _, x := range []any{refEnc, refDec, accEnc, accDec} {
		var err error
		switch x := x.(type) {
		case *contextEncoder:
			err = x.st.checkInvariants()
		case *contextDecoder:
			err = x.st.checkInvariants()
		case *windowEncoder:
			err = x.st.checkInvariants()
		case *windowDecoder:
			err = x.st.checkInvariants()
		}
		if err != nil {
			t.Fatalf("%s: %T state: %v", name, x, err)
		}
	}
}

// TestAccelMatchesReference is the deterministic differential check on a
// mixed trace; FuzzRoundTrip explores the same property under fuzzing.
func TestAccelMatchesReference(t *testing.T) {
	data := make([]byte, 600)
	for i := range data {
		data[i] = byte(i*131 + i*i*17)
	}
	vals := fuzzValues(data)
	for name, build := range accelConfigs() {
		diffPaths(t, name, build, vals)
	}
}

// FuzzRoundTrip asserts, for fuzz-chosen traces, that the row-walk and
// hash-index probe paths produce identical coded words, exact round-trips
// and identical OpStats for every scheme.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("buspower"))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144})
	seed := make([]byte, 300)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		vals := fuzzValues(data)
		for name, build := range accelConfigs() {
			diffPaths(t, name, build, vals)
		}
	})
}

// TestEncodeAllocs is the allocation regression guard for the encoder hot
// paths: a warmed Window or Context encoder allocates nothing per cycle.
func TestEncodeAllocs(t *testing.T) {
	trace := fuzzValues(func() []byte {
		data := make([]byte, 600)
		for i := range data {
			data[i] = byte(i * 53)
		}
		return data
	}())
	for name, build := range map[string]func() (Transcoder, error){
		"window-128": func() (Transcoder, error) { return NewWindow(32, 128, 1) },
		"context-128": func() (Transcoder, error) {
			return NewContext(ContextConfig{Width: 32, TableSize: 128, ShiftEntries: 8, DividePeriod: 4096, Lambda: 1})
		},
	} {
		tc, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc := tc.NewEncoder()
		for _, v := range trace {
			enc.Encode(v)
		}
		i := 0
		if allocs := testing.AllocsPerRun(1000, func() {
			enc.Encode(trace[i%len(trace)])
			i++
		}); allocs != 0 {
			t.Errorf("%s: Encode allocates %v times per op, want 0", name, allocs)
		}
	}
}

// TestEvaluatorReuseMatchesEvaluate pins that the scratch-reusing
// Evaluator path and a shared raw meter produce results identical to the
// one-shot Evaluate path.
func TestEvaluatorReuseMatchesEvaluate(t *testing.T) {
	vals := fuzzValues(func() []byte {
		data := make([]byte, 400)
		for i := range data {
			data[i] = byte(i*29 + 7)
		}
		return data
	}())
	raw := MeasureRawValues(16, vals)
	var ev Evaluator
	for name, build := range accelConfigs() {
		tc, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := Evaluate(tc, vals, 1.5)
		if err != nil {
			t.Fatalf("%s: Evaluate: %v", name, err)
		}
		ev.Use(tc)
		for run := 0; run < 2; run++ { // second run exercises Reset + scratch reuse
			got, err := ev.Evaluate(vals, 1.5, raw)
			if err != nil {
				t.Fatalf("%s: Evaluator run %d: %v", name, run, err)
			}
			if got.CodedCost() != want.CodedCost() || got.RawCost() != want.RawCost() || got.Ops != want.Ops {
				t.Fatalf("%s run %d: Evaluator result diverged: coded %v/%v raw %v/%v ops %+v/%+v",
					name, run, got.CodedCost(), want.CodedCost(), got.RawCost(), want.RawCost(), got.Ops, want.Ops)
			}
		}
	}
}
