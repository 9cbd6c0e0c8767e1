package coding

import (
	"encoding/binary"
	"hash/fnv"
	"math/bits"
	"testing"

	"buspower/internal/bus"
)

// Pins and laws for the four optimal-codebook families. Names and
// ConfigKeys are /v1/eval response bytes and result-memo keys, and the
// coded streams feed every extopt/extxover/extdvs number, so these are
// pinned to literal values rather than to another implementation.

// enumStreamDigest encodes vals with a fresh encoder and returns the
// FNV-1a digest of the coded words (8 bytes each, little-endian) and the
// encoder's op counts after the run.
func enumStreamDigest(tc Transcoder, vals []uint64) (uint64, OpStats) {
	enc := tc.NewEncoder()
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], uint64(enc.Encode(v)))
		h.Write(buf[:])
	}
	return h.Sum64(), enc.(OpReporter).Ops()
}

// TestEnumerativePins pins each family's identity strings, coded bus
// width, op counts and coded stream on gridTestTrace across widths,
// redundancies, groupings and supply rails.
func TestEnumerativePins(t *testing.T) {
	cases := []struct {
		build     func() (Transcoder, error)
		name, key string
		busWidth  int
		stages    uint64
		digest    uint64
	}{
		{func() (Transcoder, error) { return NewOptMem(8, 1) }, "optmem-8+1", "optmem+1/w8", 9, 3, 0xe832100ae9397f49},
		{func() (Transcoder, error) { return NewOptMem(8, 2) }, "optmem-8+2", "optmem+2/w8", 10, 4, 0x9e0aa190defbd07e},
		{func() (Transcoder, error) { return NewOptMem(16, 2) }, "optmem-16+2", "optmem+2/w16", 18, 11, 0x92f16a1c03700bd3},
		{func() (Transcoder, error) { return NewOptMem(16, 4) }, "optmem-16+4", "optmem+4/w16", 20, 13, 0x4707dda2be31885a},
		{func() (Transcoder, error) { return NewOptMem(32, 2) }, "optmem-32+2", "optmem+2/w32", 34, 37, 0xd5293d454a0c280b},
		{func() (Transcoder, error) { return NewOptMem(32, 8) }, "optmem-32+8", "optmem+8/w32", 40, 50, 0x1c9ca2f40da516b},
		{func() (Transcoder, error) { return NewVC(8, 1) }, "vc-8+1", "vc+1/w8", 9, 3, 0xd436d80332ddf55a},
		{func() (Transcoder, error) { return NewVC(16, 3) }, "vc-16+3", "vc+3/w16", 19, 12, 0x49840faab9a9fb94},
		{func() (Transcoder, error) { return NewVC(32, 2) }, "vc-32+2", "vc+2/w32", 34, 37, 0xd51327e9b9c77871},
		{func() (Transcoder, error) { return NewVC(32, 4) }, "vc-32+4", "vc+4/w32", 36, 41, 0xb28f5cab3a9f6f22},
		{func() (Transcoder, error) { return NewLowWeight(8, 1, 2) }, "lowweight-8g1+2", "lowweight-g1+2/w8", 10, 4, 0x7b6bce8b9ef41b59},
		{func() (Transcoder, error) { return NewLowWeight(8, 3, 1) }, "lowweight-8g3+1", "lowweight-g3+1/w8", 11, 3, 0x56d6689e15788e4d},
		{func() (Transcoder, error) { return NewLowWeight(16, 4, 1) }, "lowweight-16g4+1", "lowweight-g4+1/w16", 20, 4, 0x970af735f3096b1d},
		{func() (Transcoder, error) { return NewLowWeight(16, 2, 4) }, "lowweight-16g2+4", "lowweight-g2+4/w16", 24, 10, 0x58c24b98fa1fb66c},
		{func() (Transcoder, error) { return NewLowWeight(32, 1, 2) }, "lowweight-32g1+2", "lowweight-g1+2/w32", 34, 37, 0xd51327e9b9c77871},
		{func() (Transcoder, error) { return NewLowWeight(32, 4, 1) }, "lowweight-32g4+1", "lowweight-g4+1/w32", 36, 12, 0xf1aa01e60c3af568},
		{func() (Transcoder, error) { return NewLowWeight(32, 8, 2) }, "lowweight-32g8+2", "lowweight-g8+2/w32", 48, 16, 0xd749c7aec2e83a42},
		{func() (Transcoder, error) { return NewDVS(8, 2, 60) }, "dvs-8+2", "dvs+2/w8", 11, 5, 0xd0692148ab0d83f9},
		{func() (Transcoder, error) { return NewDVS(8, 2, 100) }, "dvs-8+2", "dvs+2/w8", 11, 5, 0xd0692148ab0d83f9},
		{func() (Transcoder, error) { return NewDVS(16, 1, 80) }, "dvs-16+1", "dvs+1/w16", 18, 11, 0xe903574c552937af},
		{func() (Transcoder, error) { return NewDVS(32, 2, 60) }, "dvs-32+2", "dvs+2/w32", 35, 38, 0x153aba8d44b6195},
		{func() (Transcoder, error) { return NewDVS(32, 2, 100) }, "dvs-32+2", "dvs+2/w32", 35, 38, 0x153aba8d44b6195},
		{func() (Transcoder, error) { return NewDVS(32, 8, 50) }, "dvs-32+8", "dvs+8/w32", 41, 51, 0x6233e17b46b38ea9},
	}
	for _, c := range cases {
		tc, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if tc.Name() != c.name || ConfigKey(tc) != c.key {
			t.Errorf("%s: identity %q/%q, want %q/%q", c.name, tc.Name(), ConfigKey(tc), c.name, c.key)
		}
		if got := tc.NewEncoder().BusWidth(); got != c.busWidth {
			t.Errorf("%s: bus width %d, want %d", c.name, got, c.busWidth)
		}
		vals := gridTestTrace(tc.DataWidth(), 3000, int64(tc.DataWidth()))
		digest, ops := enumStreamDigest(tc, vals)
		n := uint64(len(vals))
		if want := (OpStats{Cycles: n, CodeSends: n, CounterIncrements: n * c.stages}); ops != want {
			t.Errorf("%s: ops %+v, want %+v", c.name, ops, want)
		}
		if digest != c.digest {
			t.Errorf("%s: coded stream digest %#x, want %#x", c.name, digest, c.digest)
		}
	}
}

// encodeAll returns the coded words of vals under a fresh encoder.
func encodeAll(t *testing.T, tc Transcoder, err error, vals []uint64) []uint64 {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	enc := tc.NewEncoder()
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = uint64(enc.Encode(v))
	}
	return out
}

// TestLowWeightOneGroupIsVC: a single-group low-weight code is the
// monolithic vc code, cycle for cycle.
func TestLowWeightOneGroupIsVC(t *testing.T) {
	for _, width := range []int{8, 16, 32} {
		vals := gridTestTrace(width, 2000, 7)
		for extra := 1; extra <= 4; extra++ {
			vc, err := NewVC(width, extra)
			want := encodeAll(t, vc, err, vals)
			lw, err := NewLowWeight(width, 1, extra)
			got := encodeAll(t, lw, err, vals)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("w%d extra=%d cycle %d: lowweight g1 sent %#x, vc %#x", width, extra, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDVSIsVCPlusParity: dvs drives vc's words on the wires below its
// parity wire, and the parity wire carries the running parity of the
// data values sent so far.
func TestDVSIsVCPlusParity(t *testing.T) {
	for _, width := range []int{8, 16, 32} {
		vals := gridTestTrace(width, 2000, 11)
		for _, extra := range []int{1, 2, 5} {
			vc, err := NewVC(width, extra)
			want := encodeAll(t, vc, err, vals)
			dvs, err := NewDVS(width, extra, 80)
			got := encodeAll(t, dvs, err, vals)
			wires := width + extra
			mask := uint64(bus.Mask(wires))
			var parity uint64
			for i, v := range vals {
				parity ^= uint64(bits.OnesCount64(v) & 1)
				if got[i]&mask != want[i] {
					t.Fatalf("w%d extra=%d cycle %d: dvs coded wires %#x, vc %#x", width, extra, i, got[i]&mask, want[i])
				}
				if got[i]>>uint(wires) != parity {
					t.Fatalf("w%d extra=%d cycle %d: parity wire %d, running data parity %d", width, extra, i, got[i]>>uint(wires), parity)
				}
			}
		}
	}
}

// TestDVSVddLeavesStreamAlone: the supply rail reaches only the energy
// analysis, so two rails send identical streams under one ConfigKey.
func TestDVSVddLeavesStreamAlone(t *testing.T) {
	for _, width := range []int{8, 32} {
		vals := gridTestTrace(width, 2000, 13)
		lo, err := NewDVS(width, 2, 60)
		a := encodeAll(t, lo, err, vals)
		hi, err := NewDVS(width, 2, 100)
		b := encodeAll(t, hi, err, vals)
		if ConfigKey(lo) != ConfigKey(hi) {
			t.Errorf("w%d: Vdd entered the ConfigKey: %q vs %q", width, ConfigKey(lo), ConfigKey(hi))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("w%d cycle %d: Vdd 60 sent %#x, Vdd 100 %#x", width, i, a[i], b[i])
			}
		}
	}
}

// TestEnumerativeErrorPins pins the constructors' validation order and
// error text, which reach /v1/eval 400 bodies verbatim.
func TestEnumerativeErrorPins(t *testing.T) {
	cases := []struct {
		build func() (Transcoder, error)
		want  string
	}{
		{func() (Transcoder, error) { return NewOptMem(61, 0) }, "coding: optmem extra wires 0 outside [1, 8]"},
		{func() (Transcoder, error) { return NewOptMem(55, 8) }, "coding: optmem needs 63 wires, above the 62-wire bus limit"},
		{func() (Transcoder, error) { return NewVC(62, 9) }, "coding: vc extra wires 9 outside [1, 8]"},
		{func() (Transcoder, error) { return NewVC(62, 1) }, "coding: vc needs 63 wires, above the 62-wire bus limit"},
		{func() (Transcoder, error) { return NewLowWeight(2, 9, 5) }, "coding: lowweight groups 9 outside [1, 8]"},
		{func() (Transcoder, error) { return NewLowWeight(2, 4, 5) }, "coding: lowweight extra wires 5 outside [1, 4]"},
		{func() (Transcoder, error) { return NewLowWeight(4, 8, 1) }, "coding: lowweight cannot split 4 bits into 8 groups"},
		{func() (Transcoder, error) { return NewLowWeight(60, 4, 1) }, "coding: lowweight needs 64 wires, above the 62-wire bus limit"},
		{func() (Transcoder, error) { return NewDVS(32, 0, 40) }, "coding: dvs extra wires 0 outside [1, 8]"},
		{func() (Transcoder, error) { return NewDVS(60, 2, 40) }, "coding: dvs vdd 40% outside [50, 100]"},
		{func() (Transcoder, error) { return NewDVS(59, 2, 101) }, "coding: dvs vdd 101% outside [50, 100]"},
		{func() (Transcoder, error) { return NewDVS(60, 2, 80) }, "coding: dvs needs 63 wires, above the 62-wire bus limit"},
	}
	for i, c := range cases {
		_, err := c.build()
		if err == nil || err.Error() != c.want {
			t.Errorf("case %d: error %v, want %q", i, err, c.want)
		}
	}
}
