package coding

import (
	"fmt"
	"strconv"
	"strings"

	"buspower/internal/bus"
)

// Decoder round-trip verification policy.
//
// Evaluate's per-cycle decoder check is a self-check, not part of the
// measurement: the activity meters read only the encoder's output, and the
// decoder exists to prove the coded stream is invertible. Running the full
// decoder FSM doubles the work of every evaluation, so the check is a
// policy:
//
//   - VerifyFull (the zero value, and the default everywhere outside the
//     experiment runners): the decoder observes every coded word and every
//     decoded value is compared — any divergence is reported at the exact
//     cycle it happens. Tests and fuzzing always use this.
//
//   - VerifySampled(every): the decoder observes the coded stream and is
//     compared cycle-by-cycle over the first VerifyWindow cycles from
//     reset (catching initialization and protocol bugs on the real
//     stream). The decoder FSM cannot be re-attached mid-stream — its
//     state is a function of every coded word since reset — so past the
//     first window the main decoder is detached, and instead every
//     every-th input value plus the trace's last VerifyWindow values are
//     collected and round-tripped through a second, freshly reset
//     encoder/decoder pair at the end of the evaluation. Any value
//     sequence fed to a fresh pair must round-trip exactly, so this
//     replay can never raise a false alarm while still exercising the
//     codec on the trace's own data (catching data-dependent bugs). What
//     sampling cannot promise is catching a divergence that both only
//     manifests deep into one specific coded stream and never corrupts
//     the first window or the sampled replay; full verification in tests
//     and FuzzRoundTrip covers that class.
//
//   - VerifyOff: the decoder never runs. The measurement is unchanged —
//     only the self-check is forfeited.
//
// Every policy produces bit-identical Results: the coded stream and its
// meters depend only on the encoder.

// VerifyWindow is the number of cycles at the start of a trace that
// sampled verification always checks cycle-by-cycle against the live
// decoder, and the number of trailing values it always includes in the
// end-of-trace replay.
const VerifyWindow = 256

// DefaultVerifyEvery is the sampling period VerifySampled uses when given
// a non-positive period.
const DefaultVerifyEvery = 64

type verifyMode uint8

const (
	verifyFull verifyMode = iota
	verifySampled
	verifyOff
)

// VerifyPolicy selects how much decoder round-trip checking Evaluate
// performs. The zero value is VerifyFull.
type VerifyPolicy struct {
	mode  verifyMode
	every int
}

// VerifyFull checks every cycle against the live decoder (the default).
var VerifyFull = VerifyPolicy{}

// VerifyOff disables the decoder round-trip check entirely.
var VerifyOff = VerifyPolicy{mode: verifyOff}

// VerifySampled verifies the first VerifyWindow cycles live, then
// round-trips every every-th value plus the last VerifyWindow values
// through a fresh encoder/decoder pair. A non-positive every selects
// DefaultVerifyEvery.
func VerifySampled(every int) VerifyPolicy {
	if every <= 0 {
		every = DefaultVerifyEvery
	}
	return VerifyPolicy{mode: verifySampled, every: every}
}

// String returns the policy in the canonical form ParseVerifyPolicy
// accepts: "full", "off", or "sampled:N".
func (p VerifyPolicy) String() string {
	switch p.mode {
	case verifyOff:
		return "off"
	case verifySampled:
		return "sampled:" + strconv.Itoa(p.every)
	default:
		return "full"
	}
}

// ParseVerifyPolicy parses "full", "off", "sampled" (default period) or
// "sampled:N".
func ParseVerifyPolicy(s string) (VerifyPolicy, error) {
	switch {
	case s == "full":
		return VerifyFull, nil
	case s == "off":
		return VerifyOff, nil
	case s == "sampled":
		return VerifySampled(0), nil
	case strings.HasPrefix(s, "sampled:"):
		n, err := strconv.Atoi(s[len("sampled:"):])
		if err != nil || n < 1 {
			return VerifyPolicy{}, fmt.Errorf("coding: bad sampled verification period %q", s)
		}
		return VerifySampled(n), nil
	}
	return VerifyPolicy{}, fmt.Errorf("coding: unknown verification policy %q (want full, sampled[:N] or off)", s)
}

// verifySample round-trips the sampled-verification value set of trace —
// every every-th value past the head window plus the last VerifyWindow
// values, in trace order — through enc/dec from reset. Any value
// sequence must round-trip from reset, so a mismatch is a real codec
// bug.
func verifySample(t Transcoder, trace []uint64, every int, enc Encoder, dec Decoder) error {
	mask := uint64(bus.Mask(t.DataWidth()))
	n := len(trace)
	head := min(VerifyWindow, n)
	tail := max(n-VerifyWindow, head)
	enc.Reset()
	dec.Reset()
	i := min((head+every-1)/every*every, tail)
	for j := 0; i < n; j++ {
		v := trace[i] & mask
		if got := dec.Decode(enc.Encode(v)); got != v {
			return fmt.Errorf("coding: %s sampled-verification replay diverged at sample %d (cycle %d): sent %#x, decoded %#x", t.Name(), j, i, v, got)
		}
		if i < tail {
			i = min(i+every, tail)
		} else {
			i++
		}
	}
	return nil
}

// ConfigKeyer is implemented by transcoders whose Name does not fully
// determine behavior (e.g. the context coder's divide period and assumed Λ
// are not in its name). ConfigKey must return a string that two
// transcoders share exactly when they encode every trace identically.
type ConfigKeyer interface {
	ConfigKey() string
}

// ConfigKey returns a canonical configuration string for the transcoder:
// semantically identical transcoders (possibly distinct rebuilt instances)
// map to equal keys. It is the identity Evaluator.Use reuses scratch on
// and the transcoder component of the experiments' result-memo key.
func ConfigKey(t Transcoder) string {
	if k, ok := t.(ConfigKeyer); ok {
		return k.ConfigKey()
	}
	return fmt.Sprintf("%s/w%d", t.Name(), t.DataWidth())
}
