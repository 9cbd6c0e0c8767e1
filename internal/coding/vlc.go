package coding

import (
	"fmt"

	"buspower/internal/bus"
)

// This file implements the paper's §6 future-work proposal: variable-length
// coding. The fixed-length transcoders never change bus timing — one value,
// one beat. A variable-length coder additionally compresses *in time*:
// prediction hits shrink to 4-bit symbols packed eight to a beat, so a
// predictable stream crosses the bus in a fraction of the beats, saving
// energy even though individual beats are denser. The cost is exactly what
// §6 warns about: the coder changes transmission timing (beats ≠ values),
// so it cannot be a drop-in cell — which is why the paper leaves it as
// future work and this repository evaluates it as an extension.
//
// Beat format on a W-data-wire bus plus one beat-type wire:
//
//	packed beat (type 0): W/4 four-bit symbols, consumed low nibble first:
//	    0        LAST-value repeat
//	    1..14    dictionary entry hit (window slot index + 1)
//	    15       literal escape: the value arrives in a following literal
//	             beat, and both ends shift it into the window dictionary
//	type-1 beat: one raw 32-bit literal.
//
// Literal beats follow their packed beat in symbol order. A trailing
// partial packed beat is padded with 0-symbols; the decoder stops at the
// agreed value count (framing is assumed from the surrounding protocol).

// VLCConfig parameterizes the variable-length coder.
type VLCConfig struct {
	// Width is the data width in bits; must be a multiple of 4.
	Width int
	// Entries is the window dictionary size, at most 14 (symbol values 1-14).
	Entries int
}

// maxVLCEntries is the dictionary capacity addressable by one symbol.
const maxVLCEntries = 14

// VLCResult reports a variable-length coding evaluation.
type VLCResult struct {
	// Values is the number of input values transported.
	Values int
	// Beats is the number of bus beats used (Beats <= Values for
	// compressible traffic; the ratio is the time compression).
	Beats int
	// Raw meters the un-encoded bus (one beat per value, Width wires).
	Raw *bus.Meter
	// Coded meters the variable-length bus (Width+1 wires).
	Coded *bus.Meter
	// Lambda is the coupling ratio used.
	Lambda float64
}

// BeatRatio returns Beats/Values — the fraction of bus-occupancy time the
// coder needs.
func (r VLCResult) BeatRatio() float64 {
	if r.Values == 0 {
		return 1
	}
	return float64(r.Beats) / float64(r.Values)
}

// EnergyRemoved returns the fraction of Λ-weighted activity removed.
func (r VLCResult) EnergyRemoved() float64 {
	raw := r.Raw.Cost(r.Lambda)
	if raw == 0 {
		return 0
	}
	return 1 - r.Coded.Cost(r.Lambda)/raw
}

// vlcSymbols returns symbols per packed beat.
func (c VLCConfig) vlcSymbols() int { return c.Width / 4 }

func (c VLCConfig) validate() error {
	checkWidth(c.Width)
	if c.Width%4 != 0 {
		return fmt.Errorf("coding: vlc width %d not a multiple of 4", c.Width)
	}
	if c.Entries < 1 || c.Entries > maxVLCEntries {
		return fmt.Errorf("coding: vlc entries %d outside [1, %d]", c.Entries, maxVLCEntries)
	}
	return nil
}

// EncodeVLC compresses the trace into bus beats. Exposed for tests and
// tools; EvaluateVLC wraps it with decode verification and metering.
func EncodeVLC(cfg VLCConfig, trace []uint64) ([]bus.Word, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mask := uint64(bus.Mask(cfg.Width))
	typeWire := bus.Word(1) << uint(cfg.Width)
	symbolsPerBeat := cfg.vlcSymbols()

	st := newWindowState(cfg.Entries)
	var beats []bus.Word
	var packed bus.Word
	var literals []bus.Word
	var prevBeat bus.Word
	nsym := 0

	flush := func() {
		if nsym == 0 {
			return
		}
		// Packed beats are transition-coded against the previous beat so
		// repeating symbol patterns (hit streaks) leave the wires still.
		out := (prevBeat ^ packed) & bus.Word(mask)
		beats = append(beats, out)
		prevBeat = out
		for _, l := range literals {
			beats = append(beats, l)
			prevBeat = l
		}
		packed, literals, nsym = 0, literals[:0], 0
	}

	for _, v := range trace {
		v &= mask
		var sym bus.Word
		switch {
		case v == st.last:
			sym = 0
		default:
			if slot := st.find(v); slot >= 0 {
				sym = bus.Word(slot + 1)
			} else {
				sym = 15
				literals = append(literals, bus.Word(v)|typeWire)
				st.insert(v)
			}
		}
		st.last = v
		packed |= sym << uint(4*nsym)
		nsym++
		if nsym == symbolsPerBeat {
			flush()
		}
	}
	flush()
	return beats, nil
}

// DecodeVLC reconstructs exactly values data values from beats.
func DecodeVLC(cfg VLCConfig, beats []bus.Word, values int) ([]uint64, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	typeWire := bus.Word(1) << uint(cfg.Width)
	symbolsPerBeat := cfg.vlcSymbols()
	dataMask := bus.Mask(cfg.Width)

	st := newWindowState(cfg.Entries)
	out := make([]uint64, 0, values)
	i := 0
	var prevBeat bus.Word
	for i < len(beats) && len(out) < values {
		beat := beats[i]
		i++
		if beat&typeWire != 0 {
			return nil, fmt.Errorf("coding: vlc decoder expected a packed beat at %d", i-1)
		}
		symbols := (beat ^ prevBeat) & dataMask
		prevBeat = beat
		for s := 0; s < symbolsPerBeat && len(out) < values; s++ {
			sym := (symbols >> uint(4*s)) & 0xF
			var v uint64
			switch {
			case sym == 0:
				v = st.last
			case sym == 15:
				if i >= len(beats) || beats[i]&typeWire == 0 {
					return nil, fmt.Errorf("coding: vlc literal beat missing after symbol %d", s)
				}
				v = uint64(beats[i] & dataMask)
				prevBeat = beats[i]
				i++
				st.insert(v)
			default:
				slot := int(sym) - 1
				if slot >= cfg.Entries {
					return nil, fmt.Errorf("coding: vlc symbol %d exceeds dictionary size %d", sym, cfg.Entries)
				}
				v = st.entries[slot]
			}
			st.last = v
			out = append(out, v)
		}
	}
	if len(out) != values {
		return nil, fmt.Errorf("coding: vlc stream ended after %d of %d values", len(out), values)
	}
	return out, nil
}

// EvaluateVLC encodes the trace, verifies exact reconstruction, and meters
// both the raw bus and the variable-length bus. raw is an optional
// pre-measured raw-bus meter (as from MeasureRawValues at cfg.Width), so
// sweeps that evaluate several coders over one trace measure the raw bus
// once; nil measures it here.
func EvaluateVLC(cfg VLCConfig, trace []uint64, lambda float64, raw *bus.Meter) (VLCResult, error) {
	beats, err := EncodeVLC(cfg, trace)
	if err != nil {
		return VLCResult{}, err
	}
	decoded, err := DecodeVLC(cfg, beats, len(trace))
	if err != nil {
		return VLCResult{}, err
	}
	mask := uint64(bus.Mask(cfg.Width))
	for i := range trace {
		if decoded[i] != trace[i]&mask {
			return VLCResult{}, fmt.Errorf("coding: vlc diverged at value %d: %#x != %#x", i, decoded[i], trace[i]&mask)
		}
	}
	if raw == nil {
		raw = MeasureRawValues(cfg.Width, trace)
	} else if raw.Width() != cfg.Width {
		return VLCResult{}, fmt.Errorf("coding: shared raw meter width %d != vlc width %d", raw.Width(), cfg.Width)
	}
	coded := bus.NewMeterLite(cfg.Width + 1)
	coded.Record(0)
	coded.RecordTrace(beats)
	return VLCResult{
		Values: len(trace),
		Beats:  len(beats),
		Raw:    raw,
		Coded:  coded,
		Lambda: lambda,
	}, nil
}
