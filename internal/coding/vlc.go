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
// tools; EvaluateVLC runs the same coder, metering and verifying each
// beat as it is produced instead of collecting them.
func EncodeVLC[T bus.Value](cfg VLCConfig, trace []T) ([]bus.Word, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var beats []bus.Word
	encodeVLC(cfg, trace, func(b bus.Word) { beats = append(beats, b) })
	return beats, nil
}

// encodeVLC compresses the trace for a validated cfg, handing each beat to
// emit in bus order.
func encodeVLC[T bus.Value](cfg VLCConfig, trace []T, emit func(bus.Word)) {
	mask := uint64(bus.Mask(cfg.Width))
	typeWire := bus.Word(1) << uint(cfg.Width)
	symbolsPerBeat := cfg.vlcSymbols()

	st := newWindowState(cfg.Entries)
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
		emit(out)
		prevBeat = out
		for _, l := range literals {
			emit(l)
			prevBeat = l
		}
		packed, literals, nsym = 0, literals[:0], 0
	}

	for _, x := range trace {
		v := uint64(x) & mask
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
}

// vlcDecoder reconstructs an agreed number of values from beats fed one
// at a time, so a beat can be checked the moment it is produced.
type vlcDecoder struct {
	cfg            VLCConfig
	typeWire, mask bus.Word
	st             windowState
	prevBeat       bus.Word
	symbols        bus.Word // undecoded symbols of the current packed beat
	left           int      // how many of them remain
	literal        bool     // the next beat is the literal a symbol escaped
	sym            int      // symbol position of the last decoded symbol
	want           int      // values still to decode
	beat           int      // beats fed so far
}

func newVLCDecoder(cfg VLCConfig, values int) *vlcDecoder {
	return &vlcDecoder{
		cfg:      cfg,
		typeWire: bus.Word(1) << uint(cfg.Width),
		mask:     bus.Mask(cfg.Width),
		st:       newWindowState(cfg.Entries),
		want:     values,
	}
}

// feed consumes one beat, passing every value it completes to out. Beats
// past the agreed value count are ignored.
func (d *vlcDecoder) feed(beat bus.Word, out func(uint64)) error {
	d.beat++
	if d.literal {
		if beat&d.typeWire == 0 {
			return fmt.Errorf("coding: vlc literal beat missing after symbol %d", d.sym)
		}
		v := uint64(beat & d.mask)
		d.prevBeat = beat
		d.literal = false
		d.st.insert(v)
		d.emit(v, out)
		return d.drain(out)
	}
	if d.want == 0 {
		return nil
	}
	if beat&d.typeWire != 0 {
		return fmt.Errorf("coding: vlc decoder expected a packed beat at %d", d.beat-1)
	}
	d.symbols = (beat ^ d.prevBeat) & d.mask
	d.prevBeat = beat
	d.left = d.cfg.vlcSymbols()
	return d.drain(out)
}

// drain decodes the current packed beat's symbols up to the next literal
// escape or the agreed value count.
func (d *vlcDecoder) drain(out func(uint64)) error {
	for d.left > 0 && d.want > 0 {
		d.sym = d.cfg.vlcSymbols() - d.left
		sym := d.symbols & 0xF
		d.symbols >>= 4
		d.left--
		switch {
		case sym == 0:
			d.emit(d.st.last, out)
		case sym == 15:
			d.literal = true
			return nil
		default:
			slot := int(sym) - 1
			if slot >= d.cfg.Entries {
				return fmt.Errorf("coding: vlc symbol %d exceeds dictionary size %d", sym, d.cfg.Entries)
			}
			d.emit(d.st.entries[slot], out)
		}
	}
	return nil
}

func (d *vlcDecoder) emit(v uint64, out func(uint64)) {
	d.st.last = v
	d.want--
	out(v)
}

// finish reports whether the beats fed so far completed every value.
func (d *vlcDecoder) finish(values int) error {
	if d.literal {
		return fmt.Errorf("coding: vlc literal beat missing after symbol %d", d.sym)
	}
	if d.want != 0 {
		return fmt.Errorf("coding: vlc stream ended after %d of %d values", values-d.want, values)
	}
	return nil
}

// DecodeVLC reconstructs exactly values data values from beats.
func DecodeVLC(cfg VLCConfig, beats []bus.Word, values int) ([]uint64, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := newVLCDecoder(cfg, values)
	out := make([]uint64, 0, values)
	keep := func(v uint64) { out = append(out, v) }
	for _, b := range beats {
		if err := d.feed(b, keep); err != nil {
			return nil, err
		}
	}
	if err := d.finish(values); err != nil {
		return nil, err
	}
	return out, nil
}

// EvaluateVLC encodes the trace, verifies exact reconstruction, and meters
// both the raw bus and the variable-length bus. raw is an optional
// pre-measured raw-bus meter (as from MeasureRawValues at cfg.Width), so
// sweeps that evaluate several coders over one trace measure the raw bus
// once; nil measures it here. Each beat is metered and decoded as the
// coder emits it; no beat or decoded value is buffered.
func EvaluateVLC[T bus.Value](cfg VLCConfig, trace []T, lambda float64, raw *bus.Meter) (VLCResult, error) {
	if err := cfg.validate(); err != nil {
		return VLCResult{}, err
	}
	if raw == nil {
		raw = MeasureRaw(cfg.Width, trace)
	} else if raw.Width() != cfg.Width {
		return VLCResult{}, fmt.Errorf("coding: shared raw meter width %d != vlc width %d", raw.Width(), cfg.Width)
	}
	mask := uint64(bus.Mask(cfg.Width))
	dec := newVLCDecoder(cfg, len(trace))
	var err error
	next := 0 // index of the next value the decoder must reproduce
	check := func(v uint64) {
		if want := uint64(trace[next]) & mask; v != want && err == nil {
			err = fmt.Errorf("coding: vlc diverged at value %d: %#x != %#x", next, v, want)
		}
		next++
	}
	coded := bus.NewMeterLite(cfg.Width + 1)
	st := coded.Stream()
	st.Record(0)
	beats := 0
	encodeVLC(cfg, trace, func(b bus.Word) {
		st.Record(b)
		beats++
		if err == nil {
			err = dec.feed(b, check)
		}
	})
	st.Flush()
	if err == nil {
		err = dec.finish(len(trace))
	}
	if err != nil {
		return VLCResult{}, err
	}
	return VLCResult{
		Values: len(trace),
		Beats:  beats,
		Raw:    raw,
		Coded:  coded,
		Lambda: lambda,
	}, nil
}
