package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"slices"
	"testing"

	"buspower/internal/stats"
)

// refDecode decodes a packed stream with the standard library's varint
// reader, independently of walkDeltas.
func refDecode(t *testing.T, d Deltas) []uint32 {
	t.Helper()
	out := make([]uint32, 0, d.Len)
	var prev uint32
	for src := d.Data; len(src) > 0; {
		x, n := binary.Varint(src)
		if n <= 0 || n > maxDeltaBytes {
			t.Fatalf("reference decoder: bad varint (n=%d)", n)
		}
		prev += uint32(x)
		out = append(out, prev)
		src = src[n:]
	}
	return out
}

// deltaStreams is a spread of streams the codec must round-trip: empty
// and one-value streams, wrap-around steps between 0xFFFFFFFF and 0, the
// largest jumps either way, and random walks and uniform noise.
func deltaStreams() map[string][]uint32 {
	rng := stats.NewRNG(3)
	walk := make([]uint32, 50_000)
	noise := make([]uint32, 50_000)
	for i := range walk {
		noise[i] = rng.Uint32()
		if i > 0 {
			walk[i] = walk[i-1] + rng.Uint32()%512 - 256
		}
	}
	return map[string][]uint32{
		"empty":       {},
		"nil":         nil,
		"one zero":    {0},
		"one max":     {0xFFFFFFFF},
		"one min int": {0x80000000},
		"wrap":        {0xFFFFFFFF, 0, 0xFFFFFFFF, 0, 1, 0xFFFFFFFE},
		"large jumps": {0, 0x7FFFFFFF, 0xFFFFFFFF, 0x7FFFFFFF, 0x80000000, 0, 0x80000000, 0x80000001, 1},
		"constant":    {7, 7, 7, 7},
		"walk":        walk,
		"noise":       noise,
	}
}

// TestDeltasRoundTrip: every stream packs to exactly-sized bytes that the
// decoder and an independent stdlib decoder both read back unchanged.
func TestDeltasRoundTrip(t *testing.T) {
	for name, vals := range deltaStreams() {
		d := PackDeltas(vals)
		if d.Len != len(vals) || cap(d.Data) != len(d.Data) {
			t.Fatalf("%s: Len %d for %d values, Data len %d cap %d", name, d.Len, len(vals), len(d.Data), cap(d.Data))
		}
		if len(d.Data) < len(vals) || len(d.Data) > maxDeltaBytes*len(vals) {
			t.Fatalf("%s: %d bytes for %d values", name, len(d.Data), len(vals))
		}
		got := make([]uint32, len(vals))
		if err := d.Decode(got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got, vals) {
			t.Fatalf("%s: decoded values differ", name)
		}
		if ref := refDecode(t, d); !slices.Equal(ref, vals) {
			t.Fatalf("%s: the stdlib decoder reads other values", name)
		}
	}
	// A step of ±2^31 is the largest and takes all 5 bytes.
	if d := PackDeltas([]uint32{0x80000000}); len(d.Data) != maxDeltaBytes {
		t.Fatalf("a step of 2^31 packs to %d bytes, want %d", len(d.Data), maxDeltaBytes)
	}
}

// TestDeltasDecodeRejects: the decoder accepts only the exact encoding of
// Len values.
func TestDeltasDecodeRejects(t *testing.T) {
	good := PackDeltas([]uint32{5, 300, 0xFFFFFFFF}) // 1-, 2- and 2-byte steps
	cases := map[string]Deltas{
		"truncated last varint":      {Len: 3, Data: good.Data[:len(good.Data)-1]},
		"varint of 6 bytes":          {Len: 1, Data: []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
		"5-byte varint past 32 bits": {Len: 1, Data: []byte{0x80, 0x80, 0x80, 0x80, 0x10}},
		"trailing bytes":             {Len: 2, Data: good.Data},
		"fewer values":               {Len: 4, Data: good.Data},
		"redundant byte":             {Len: 1, Data: []byte{0x82, 0x00}},
		"empty with a value":         {Len: 1, Data: nil},
	}
	for name, d := range cases {
		if err := d.Decode(make([]uint32, d.Len)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := good.Decode(make([]uint32, 2)); err == nil {
		t.Error("decoded 3 values into a 2-value slice")
	}
}

// packedFile hand-assembles a BUSTRC05 container with one plain section
// and one packed section whose header announces count values in data,
// independently of Container.Write (which refuses malformed streams).
func packedFile(count int, data []byte) []byte {
	le := binary.LittleEndian
	body := []byte{1, 0, 'x', 0, 0, 0, 0, 2, 0}
	body = append(le.AppendUint16(body, 3), "reg"...)
	body = le.AppendUint16(le.AppendUint16(body, 32), codingPlain)
	body = le.AppendUint64(le.AppendUint64(body, 1), 4)
	body = append(le.AppendUint16(body, 4), "addr"...)
	body = le.AppendUint16(le.AppendUint16(body, 32), codingDeltas)
	body = le.AppendUint64(le.AppendUint64(body, uint64(count)), uint64(len(data)))
	body = append(body, make([]byte, valuesPadding(8+len(body)))...)
	body = le.AppendUint32(body, 0xDEADBEEF)
	body = append(append(body, data...), make([]byte, valuesPadding(len(data)))...)
	sum := fnv.New64a()
	sum.Write(body)
	return le.AppendUint64(append(containerMagic[:], body...), sum.Sum64())
}

// TestContainerRejectsMalformedPackedSection: a packed section that is not
// the exact encoding of its declared count fails ParseContainer, checksum
// notwithstanding; the well-formed file beside them parses.
func TestContainerRejectsMalformedPackedSection(t *testing.T) {
	vals := []uint32{0x1000, 0x1004, 0x2000, 0x1FFC, 0}
	good := PackDeltas(vals)
	c, err := ParseContainer(packedFile(len(vals), good.Data))
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := c.SectionByName("addr"); s.Packed == nil || s.Packed.Len != len(vals) || !bytes.Equal(s.Packed.Data, good.Data) {
		t.Fatalf("well-formed packed section parsed as %+v", s)
	}
	last := append([]byte{}, good.Data...)
	last[len(last)-1] |= 0x80 // the last varint runs off the section
	long := append([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, good.Data[1:]...)
	for name, f := range map[string][]byte{
		"truncated last varint": packedFile(len(vals), last),
		"varint over 5 bytes":   packedFile(len(vals), long),
		"trailing bytes":        packedFile(len(vals)-1, good.Data),
		"fewer values":          packedFile(len(vals)+1, good.Data),
		"redundant byte":        packedFile(len(vals), append(append([]byte{}, good.Data[:len(good.Data)-1]...), good.Data[len(good.Data)-1]|0x80, 0)),
		"size under count":      packedFile(len(good.Data)+1, good.Data),
		"size over 5 × count":   packedFile(1, bytes.Repeat([]byte{0x7F}, 6)),
	} {
		if _, err := ParseContainer(f); !errors.Is(err, ErrContainerFormat) {
			t.Errorf("%s: error %v, want ErrContainerFormat", name, err)
		}
	}
	// Non-zero padding after a packed section fails too.
	odd := packedFile(3, PackDeltas([]uint32{1, 2, 3}).Data) // 3 bytes, 1 byte of padding
	odd[len(odd)-9] = 1
	if _, err := ParseContainer(resum(odd)); !errors.Is(err, ErrContainerFormat) {
		t.Errorf("non-zero padding after a packed section: error %v", err)
	}
	// So does an unknown coding.
	bad := packedFile(len(vals), good.Data)
	binary.LittleEndian.PutUint16(bad[bytes.Index(bad, []byte("addr"))+6:], 2)
	if _, err := ParseContainer(resum(bad)); !errors.Is(err, ErrContainerFormat) {
		t.Errorf("unknown coding: error %v", err)
	}
}

// TestContainerPackedSectionViews: a packed section views the container's
// bytes when the plain sections do, and is an exact-size copy otherwise.
func TestContainerPackedSectionViews(t *testing.T) {
	d := PackDeltas([]uint32{9, 8, 7, 1 << 20, 0})
	c := &Container{Name: "v", Sections: []Section{
		{Name: "reg", Width: 32, Values: []uint32{1, 2}},
		{Name: "addr", Width: 32, Packed: &d},
	}}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, aligned := range []bool{true, false} {
		data := append([]byte{}, buf.Bytes()...)
		if !aligned {
			data = append([]byte{0}, data...)[1:]
		}
		got, viewed, err := parseContainer(data)
		if err != nil {
			t.Fatal(err)
		}
		if viewed != (aligned && littleEndian) {
			t.Fatalf("aligned=%v: viewed %v", aligned, viewed)
		}
		p := got.Sections[1].Packed
		if cap(p.Data) != len(p.Data) || !bytes.Equal(p.Data, d.Data) {
			t.Fatalf("aligned=%v: packed data len %d cap %d", aligned, len(p.Data), cap(p.Data))
		}
		at := bytes.Index(data, d.Data)
		data[at] ^= 0x01
		if changed := p.Data[0] != d.Data[0]; changed != viewed {
			t.Fatalf("aligned=%v: packed section changed with the buffer: %v, viewed %v", aligned, changed, viewed)
		}
	}
	if err := (&Container{Sections: []Section{{Name: "a", Width: 32, Values: []uint32{1}, Packed: &d}}}).Write(&bytes.Buffer{}); err == nil {
		t.Error("a section with both plain and packed values was written")
	}
	if err := (&Container{Sections: []Section{{Name: "a", Width: 32, Packed: &Deltas{Len: 2, Data: []byte{1}}}}}).Write(&bytes.Buffer{}); err == nil {
		t.Error("a malformed packed section was written")
	}
}

// FuzzDeltas round-trips arbitrary streams through the codec, and feeds
// the raw input to the decoder as a packed stream: whatever it accepts
// must be the encoding of the values it decodes to.
func FuzzDeltas(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(PackDeltas([]uint32{0x1000, 0x1004, 0x0FFC}).Data)
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x0F})
	f.Fuzz(func(t *testing.T, raw []byte) {
		vals := make([]uint32, len(raw)/4)
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		d := PackDeltas(vals)
		if cap(d.Data) != len(d.Data) {
			t.Fatalf("Data len %d cap %d", len(d.Data), cap(d.Data))
		}
		got := make([]uint32, len(vals))
		if err := d.Decode(got); err != nil || !slices.Equal(got, vals) {
			t.Fatalf("round trip: %v", err)
		}

		n := 0 // a canonical stream of raw has one terminating byte per value
		for _, b := range raw {
			if b < 0x80 {
				n++
			}
		}
		dec := make([]uint32, n)
		if err := (Deltas{Len: n, Data: raw}).Decode(dec); err == nil && !bytes.Equal(PackDeltas(dec).Data, raw) {
			t.Fatalf("accepted %x, which is not the encoding of %v", raw, dec)
		}
	})
}
