package coding

import (
	"testing"
	"testing/quick"

	"buspower/internal/stats"
)

func vlcCfg() VLCConfig { return VLCConfig{Width: 32, Entries: 14} }

func TestVLCRoundTripTraffic(t *testing.T) {
	rng := stats.NewRNG(11)
	traces := map[string][]uint64{}
	hot := make([]uint64, 10)
	for i := range hot {
		hot[i] = rng.Uint64() & 0xFFFFFFFF
	}
	mixed := make([]uint64, 5000)
	for i := range mixed {
		if rng.Intn(4) == 0 {
			mixed[i] = rng.Uint64() & 0xFFFFFFFF
		} else {
			mixed[i] = hot[rng.Intn(len(hot))]
		}
	}
	traces["mixed"] = mixed
	random := make([]uint64, 5000)
	for i := range random {
		random[i] = rng.Uint64() & 0xFFFFFFFF
	}
	traces["random"] = random
	traces["constant"] = make([]uint64, 100) // all zeros
	traces["empty"] = nil
	traces["one"] = []uint64{42}
	traces["seven"] = []uint64{1, 2, 3, 4, 5, 6, 7} // partial final beat
	for name, tr := range traces {
		if _, err := EvaluateVLC(vlcCfg(), tr, 1, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestVLCQuick(t *testing.T) {
	cfg := VLCConfig{Width: 16, Entries: 6}
	f := func(raw []uint16) bool {
		trace := make([]uint64, len(raw))
		for i, v := range raw {
			trace[i] = uint64(v)
		}
		_, err := EvaluateVLC(cfg, trace, 1, nil)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestVLCCompressesHitsInTime(t *testing.T) {
	// A fully predictable stream (one constant) needs one packed beat per
	// 8 values: beat ratio 1/8.
	trace := make([]uint64, 8000)
	for i := range trace {
		trace[i] = 0xCAFE
	}
	res, err := EvaluateVLC(vlcCfg(), trace, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.BeatRatio(); r > 0.13 {
		t.Errorf("beat ratio %v, want ~0.125 for constant traffic", r)
	}
	// Only the initial literal costs anything; the packed hit beats leave
	// the wires still (both streams are nearly free, so compare absolute
	// activity rather than ratios).
	if got := res.Coded.Cost(1); got > 100 {
		t.Errorf("constant traffic cost %v weighted transitions, want a handful", got)
	}
}

func TestVLCExpandsRandomTraffic(t *testing.T) {
	// Every value escapes: one packed beat per 8 values plus 8 literals —
	// beat ratio 9/8, and energy gets worse, §6's trade-off on
	// incompressible traffic.
	rng := stats.NewRNG(13)
	trace := make([]uint64, 8000)
	for i := range trace {
		trace[i] = rng.Uint64() & 0xFFFFFFFF
	}
	res, err := EvaluateVLC(vlcCfg(), trace, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.BeatRatio(); r < 1.1 {
		t.Errorf("beat ratio %v, want ~1.125 for random traffic", r)
	}
}

func TestVLCTradeoffOnPredictableTraffic(t *testing.T) {
	// The §6 trade-off, measured: on hot-set traffic the VLC coder
	// compresses heavily in *time* (a property no fixed-length coder has)
	// while removing a substantial share of transition energy — but the
	// fixed-length window coder, whose hits cost a single wire toggle,
	// stays ahead on pure Λ-weighted activity. This is the quantitative
	// form of the paper's reason to prefer fixed-length codes for
	// drop-in transcoding.
	rng := stats.NewRNG(17)
	hot := make([]uint64, 8)
	for i := range hot {
		hot[i] = rng.Uint64() & 0xFFFFFFFF
	}
	trace := make([]uint64, 20000)
	for i := range trace {
		if rng.Intn(12) == 0 {
			trace[i] = rng.Uint64() & 0xFFFFFFFF
		} else {
			trace[i] = hot[rng.Intn(len(hot))]
		}
	}
	vlc, err := EvaluateVLC(VLCConfig{Width: 32, Entries: 14}, trace, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	win, err := NewWindow(32, 14, 1)
	if err != nil {
		t.Fatal(err)
	}
	fixed := MustEvaluate(win, trace, 1)
	if vlc.EnergyRemoved() < 0.4 {
		t.Errorf("vlc removed only %.3f on predictable traffic", vlc.EnergyRemoved())
	}
	if vlc.BeatRatio() >= 0.5 {
		t.Errorf("vlc beat ratio %.3f, expected substantial time compression", vlc.BeatRatio())
	}
	if fixed.EnergyRemoved() <= vlc.EnergyRemoved()-0.05 {
		t.Errorf("fixed-length (%.3f) unexpectedly lost badly to vlc (%.3f) on transition energy",
			fixed.EnergyRemoved(), vlc.EnergyRemoved())
	}
}

func TestVLCValidation(t *testing.T) {
	bad := []VLCConfig{
		{Width: 30, Entries: 8},  // not a multiple of 4
		{Width: 32, Entries: 0},  // no dictionary
		{Width: 32, Entries: 15}, // symbol space exhausted (15 = escape)
	}
	for _, cfg := range bad {
		if _, err := EncodeVLC(cfg, []uint64{1}); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestVLCDecodeRejectsCorruptStreams(t *testing.T) {
	cfg := vlcCfg()
	trace := []uint64{1, 2, 3, 1, 2, 3, 1, 2, 3, 4}
	beats, err := EncodeVLC(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	// Truncated stream.
	if _, err := DecodeVLC(cfg, beats[:1], len(trace)); err == nil {
		t.Error("truncated stream accepted")
	}
	// An out-of-range dictionary symbol (with a small dictionary).
	small := VLCConfig{Width: 32, Entries: 2}
	smallBeats, err := EncodeVLC(small, trace)
	if err != nil {
		t.Fatal(err)
	}
	smallBeats[0] = (smallBeats[0] &^ 0xF) | 0x7 // symbol 7 > dictionary size 2
	if _, err := DecodeVLC(small, smallBeats, len(trace)); err == nil {
		t.Error("out-of-range symbol accepted")
	}
}

func TestVLCDecodeDetectsBeatTypeCorruption(t *testing.T) {
	cfg := vlcCfg()
	trace := make([]uint64, 40)
	for i := range trace {
		trace[i] = uint64(i) // all literals
	}
	beats, err := EncodeVLC(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the type wire of the first beat: a literal where a packed beat
	// is required.
	beats[0] ^= 1 << 32
	if _, err := DecodeVLC(cfg, beats, len(trace)); err == nil {
		t.Error("type-wire corruption went undetected")
	}
}
