package coding

import (
	"fmt"
	"strings"
	"testing"

	"buspower/internal/bus"
)

// evalTrace builds a deterministic value trace long enough to push sampled
// verification well past its live-checked prefix window.
func evalTrace(n int) []uint64 {
	vals := make([]uint64, n)
	v := uint64(0x9E3779B97F4A7C15)
	for i := range vals {
		v ^= v << 13
		v ^= v >> 7
		v ^= v << 17
		switch i % 5 {
		case 0:
			vals[i] = v
		case 1:
			vals[i] = vals[max(i-1, 0)] // repeat: exercise LAST hits
		case 2:
			vals[i] = uint64(i) // low-entropy ramp
		default:
			vals[i] = v >> 32
		}
	}
	return vals
}

func evalPolicies() map[string]VerifyPolicy {
	return map[string]VerifyPolicy{
		"full":      VerifyFull,
		"sampled":   VerifySampled(0),
		"sampled:7": VerifySampled(7),
		"off":       VerifyOff,
	}
}

// evaluateBuffered is the two-pass reference implementation of
// Evaluator.Evaluate: it buffers the whole coded trace, verifies the
// decoder on every cycle regardless of ev.Verify, and meters the buffer
// afterwards. The fused streaming path must produce bit-identical
// Results. It allocates a fresh coded meter per call, so its Results are
// caller-owned.
func evaluateBuffered(ev *Evaluator, trace []uint64, lambda float64, raw *bus.Meter) (Result, error) {
	if ev.t == nil {
		return Result{}, fmt.Errorf("coding: Evaluator has no transcoder (call Use first)")
	}
	ev.enc.Reset()
	ev.dec.Reset()
	raw, err := checkRaw(ev, trace, raw)
	if err != nil {
		return Result{}, err
	}
	buf := make([]bus.Word, 0, len(trace))
	for i, v := range trace {
		v &= ev.mask
		w := ev.enc.Encode(v)
		if got := ev.dec.Decode(w); got != v {
			return Result{}, ev.divergence(i, v, got)
		}
		buf = append(buf, w)
	}
	coded := bus.NewMeterLite(ev.enc.BusWidth())
	coded.Record(0)
	bus.RecordValues(coded, buf)
	return ev.result(raw, coded, lambda), nil
}

// TestEvaluateMatchesBuffered is the differential test for the fused
// streaming path: under every verification policy, Evaluate must produce
// a Result bit-identical to the two-pass evaluateBuffered reference
// (which buffers the coded trace, meters it word by word and always
// fully verifies). Besides the dictionaries it covers the other coders
// whose bulk loop accounts its own blocks: inversion at an integral and
// a fractional assumed Λ, and a stride bank.
func TestEvaluateMatchesBuffered(t *testing.T) {
	vals := evalTrace(3 * VerifyWindow)
	raw := MeasureRawValues(16, vals)
	configs := accelConfigs()
	for _, l := range []float64{1, 0.5} {
		configs[fmt.Sprintf("inversion-l%g", l)] = func() (Transcoder, error) {
			pats, err := DefaultInversionPatterns(16, 4)
			if err != nil {
				return nil, err
			}
			return NewInversion(16, pats, l)
		}
	}
	configs["stride-4"] = func() (Transcoder, error) { return NewStride(16, 4, 1) }
	for name, build := range configs {
		tc, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var ev Evaluator
		ev.Use(tc)
		want, err := evaluateBuffered(&ev, vals, 1.5, raw)
		if err != nil {
			t.Fatalf("%s: evaluateBuffered: %v", name, err)
		}
		for pname, policy := range evalPolicies() {
			ev.Verify = policy
			got, err := ev.Evaluate(vals, 1.5, raw)
			if err != nil {
				t.Fatalf("%s/%s: Evaluate: %v", name, pname, err)
			}
			if got.Coded.Cycles() != want.Coded.Cycles() ||
				got.Coded.Transitions() != want.Coded.Transitions() ||
				got.Coded.Couplings() != want.Coded.Couplings() ||
				got.Coded.State() != want.Coded.State() {
				t.Fatalf("%s/%s: coded meter diverged: (%d,%d,%d,%#x) != (%d,%d,%d,%#x)",
					name, pname,
					got.Coded.Cycles(), got.Coded.Transitions(), got.Coded.Couplings(), got.Coded.State(),
					want.Coded.Cycles(), want.Coded.Transitions(), want.Coded.Couplings(), want.Coded.State())
			}
			if got.RawCost() != want.RawCost() || got.CodedCost() != want.CodedCost() ||
				got.Ops != want.Ops || got.DataWidth != want.DataWidth ||
				got.CodedWidth != want.CodedWidth || got.Scheme != want.Scheme {
				t.Fatalf("%s/%s: Result diverged: %+v vs %+v", name, pname, got, want)
			}
		}
	}
}

// corruptAtTranscoder wraps a working transcoder with a decoder that corrupts
// its output at one chosen cycle, to prove each verification policy
// catches (or, for VerifyOff, deliberately ignores) real divergence.
type corruptAtTranscoder struct {
	Transcoder
	badCycle int
}

func (b *corruptAtTranscoder) NewDecoder() Decoder {
	return &corruptAtDecoder{inner: b.Transcoder.NewDecoder(), badCycle: b.badCycle}
}

type corruptAtDecoder struct {
	inner    Decoder
	badCycle int
	cycle    int
}

func (d *corruptAtDecoder) Decode(w bus.Word) uint64 {
	v := d.inner.Decode(w)
	if d.cycle == d.badCycle {
		v ^= 1
	}
	d.cycle++
	return v
}

func (d *corruptAtDecoder) Reset() {
	d.inner.Reset()
	d.cycle = 0
}

func TestVerifyPoliciesCatchDivergence(t *testing.T) {
	vals := evalTrace(4 * VerifyWindow)
	inner, err := NewWindow(16, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		policy   VerifyPolicy
		badCycle int
		caught   bool
		errPart  string
	}{
		{"full-early", VerifyFull, 3, true, "cycle 3"},
		{"full-deep", VerifyFull, 3 * VerifyWindow, true, "cycle 768"},
		{"sampled-window", VerifySampled(8), 3, true, "cycle 3"},
		// Deep corruption: the live decoder is detached past the window,
		// but the end-of-trace replay drives a fresh decoder over enough
		// sampled values to reach the broken cycle again.
		{"sampled-replay", VerifySampled(8), VerifyWindow + 10, true, "replay diverged"},
		{"off-ignores", VerifyOff, 3, false, ""},
	}
	for _, c := range cases {
		var ev Evaluator
		ev.Use(&corruptAtTranscoder{Transcoder: inner, badCycle: c.badCycle})
		ev.Verify = c.policy
		_, err := ev.Evaluate(vals, 1, nil)
		if c.caught {
			if err == nil {
				t.Fatalf("%s: corrupted decoder not detected", c.name)
			}
			if !strings.Contains(err.Error(), c.errPart) {
				t.Fatalf("%s: error %q does not mention %q", c.name, err, c.errPart)
			}
		} else if err != nil {
			t.Fatalf("%s: VerifyOff ran the decoder: %v", c.name, err)
		}
	}
}

// TestEvaluatorUseReusesOnEqualConfig pins the identity rule: Use keys on
// the canonical configuration, so a semantically identical transcoder
// rebuilt by a sweep's inner loop adopts the existing encoder/decoder and
// scratch instead of reallocating, while any config change rebuilds.
func TestEvaluatorUseReusesOnEqualConfig(t *testing.T) {
	build := func(divide int) Transcoder {
		tc, err := NewContext(ContextConfig{Width: 16, TableSize: 8, ShiftEntries: 4, DividePeriod: divide, Lambda: 1})
		if err != nil {
			t.Fatal(err)
		}
		return tc
	}
	var ev Evaluator
	ev.Use(build(64))
	enc := ev.enc
	ev.Use(build(64)) // distinct instance, identical config
	if ev.enc != enc {
		t.Fatalf("Use rebuilt the encoder for an identical config")
	}
	// Same Name() but different divide period: must rebuild (the context
	// coder's name omits the divide period — the original motivation for
	// ConfigKey over Name).
	a, b := build(64), build(32)
	if a.Name() != b.Name() {
		t.Fatalf("test premise broken: names differ (%q vs %q)", a.Name(), b.Name())
	}
	ev.Use(b)
	if ev.enc == enc {
		t.Fatalf("Use kept the encoder across a divide-period change")
	}
}

func TestConfigKeySeparatesConfigs(t *testing.T) {
	mk := func(f func() (Transcoder, error)) Transcoder {
		tc, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return tc
	}
	pairsDistinct := [][2]Transcoder{
		{mk(func() (Transcoder, error) { return NewWindow(16, 8, 1) }),
			mk(func() (Transcoder, error) { return NewWindow(16, 8, 2) })}, // λ differs
		{mk(func() (Transcoder, error) { return NewWindow(16, 8, 1) }),
			mk(func() (Transcoder, error) { return NewWindow(32, 8, 1) })}, // width differs
		{mk(func() (Transcoder, error) { return NewStride(16, 2, 1) }),
			mk(func() (Transcoder, error) { return NewStride(16, 2, 3) })}, // assumed λ differs
		{mk(func() (Transcoder, error) { return NewBusInvert(16, 0) }),
			mk(func() (Transcoder, error) { return NewBusInvert(32, 0) })},
	}
	for i, p := range pairsDistinct {
		if ConfigKey(p[0]) == ConfigKey(p[1]) {
			t.Fatalf("pair %d: distinct configs share key %q", i, ConfigKey(p[0]))
		}
	}
	for name, build := range accelConfigs() {
		a, b := mk(build), mk(build)
		if ConfigKey(a) != ConfigKey(b) {
			t.Fatalf("%s: rebuilt identical transcoder changed key: %q vs %q", name, ConfigKey(a), ConfigKey(b))
		}
	}
}

func TestParseVerifyPolicyRoundTrip(t *testing.T) {
	for _, s := range []string{"full", "off", "sampled:64", "sampled:7"} {
		p, err := ParseVerifyPolicy(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if p.String() != s {
			t.Fatalf("%q round-tripped to %q", s, p.String())
		}
	}
	if p, err := ParseVerifyPolicy("sampled"); err != nil || p != VerifySampled(DefaultVerifyEvery) {
		t.Fatalf("bare \"sampled\" parsed to %v, %v", p, err)
	}
	for _, s := range []string{"", "sometimes", "sampled:0", "sampled:-3", "sampled:x"} {
		if _, err := ParseVerifyPolicy(s); err == nil {
			t.Fatalf("%q: expected parse error", s)
		}
	}
}

// TestEvaluateStreamingAllocs is the allocation regression guard for the
// fused streaming path: after the first (warming) call, Evaluate must not
// allocate under any verification policy — the coded meter, the sample
// buffer and the replay codec pair are all reused.
func TestEvaluateStreamingAllocs(t *testing.T) {
	vals := evalTrace(3 * VerifyWindow)
	raw := MeasureRawValues(16, vals)
	for name, build := range accelConfigs() {
		tc, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for pname, policy := range evalPolicies() {
			var ev Evaluator
			ev.Use(tc)
			ev.Verify = policy
			if _, err := ev.Evaluate(vals, 1, raw); err != nil { // warm scratch
				t.Fatalf("%s/%s: %v", name, pname, err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := ev.Evaluate(vals, 1, raw); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s/%s: Evaluate allocates %v times per run, want 0", name, pname, allocs)
			}
		}
	}
}
