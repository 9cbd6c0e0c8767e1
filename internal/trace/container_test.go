package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"buspower/internal/stats"
)

func randomContainer(seed uint64) *Container {
	rng := stats.NewRNG(seed)
	c := &Container{
		Name: "wl-" + string(rune('a'+seed%26)),
		Meta: []byte(`{"instructions":123}`),
	}
	nSections := 1 + int(rng.Uint32()%4)
	for s := 0; s < nSections; s++ {
		n := int(rng.Uint32() % 20000)
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = rng.Uint32()
		}
		sec := Section{
			Name:   []string{"reg", "mem", "addr", "extra"}[s],
			Width:  1 + int(rng.Uint32()%maxSectionWidth),
			Values: vals,
		}
		if sec.Name == "addr" {
			// An address-like walk, packed as the trace cache packs it.
			for i := 1; i < n; i++ {
				vals[i] = vals[i-1] + vals[i]%256 - 128
			}
			packed := PackDeltas(vals)
			sec.Values, sec.Packed = nil, &packed
		}
		c.Sections = append(c.Sections, sec)
	}
	return c
}

// sectionsEqual reports whether two containers hold the same name, meta
// and sections, packed sections byte for byte.
func sectionsEqual(a, b *Container) bool {
	if a.Name != b.Name || !bytes.Equal(a.Meta, b.Meta) || len(a.Sections) != len(b.Sections) {
		return false
	}
	for i := range a.Sections {
		x, y := a.Sections[i], b.Sections[i]
		if x.Name != y.Name || x.Width != y.Width || !slices.Equal(x.Values, y.Values) || (x.Packed == nil) != (y.Packed == nil) {
			return false
		}
		if x.Packed != nil && (x.Packed.Len != y.Packed.Len || !bytes.Equal(x.Packed.Data, y.Packed.Data)) {
			return false
		}
	}
	return true
}

// Round-trip property: Write then ParseContainer reproduces every field for
// a spread of random sizes, including sections straddling the 64 KiB block
// boundary, empty sections and packed sections of every length mod 4.
func TestContainerRoundTripProperty(t *testing.T) {
	packedLens := map[int]bool{}
	for seed := uint64(1); seed <= 40; seed++ {
		orig := randomContainer(seed)
		var buf bytes.Buffer
		if err := orig.Write(&buf); err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		got, err := ParseContainer(buf.Bytes())
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		if !sectionsEqual(got, orig) {
			t.Fatalf("seed %d: parsed container differs", seed)
		}
		if s, ok := orig.SectionByName("addr"); ok {
			packedLens[len(s.Packed.Data)%4] = true
		}
	}
	if len(packedLens) != 4 {
		t.Fatalf("packed sections cover lengths %v mod 4, want all four paddings", packedLens)
	}
}

// TestContainerRoundTripBlockBoundary round-trips sections around the
// block size and at the experiments' full trace length, through both the
// zero-copy decoder (a heap buffer, which Go allocates 8-byte aligned, on
// a little-endian host: its sections alias the bytes) and the copying one
// (the same bytes one byte into a buffer), and requires each section to be
// exactly as long as its data: cache traces stay resident, so spare
// capacity is memory held for nothing, and a view with spare capacity
// would let an append write into the next section.
func TestContainerRoundTripBlockBoundary(t *testing.T) {
	for _, n := range []int{0, 1, blockWords - 1, blockWords, blockWords + 1, 120_000} {
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = uint32(i) * 0x9E3779B9
		}
		c := &Container{Name: "b", Sections: []Section{{Name: "reg", Width: 32, Values: vals}}}
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
				t.Fatalf("n=%d aligned=%v: %v", n, aligned, err)
			}
			if viewed != (aligned && littleEndian && n > 0) {
				t.Fatalf("n=%d aligned=%v: viewed %v", n, aligned, viewed)
			}
			dec := got.Sections[0].Values
			if dec == nil || len(dec) != n || cap(dec) != n {
				t.Fatalf("n=%d aligned=%v: decoded len %d cap %d (nil %v), want both %d", n, aligned, len(dec), cap(dec), dec == nil, n)
			}
			if !slices.Equal(dec, vals) {
				t.Fatalf("n=%d aligned=%v: values differ", n, aligned)
			}
			if n == 0 {
				continue
			}
			// Flip the first value's low byte in the buffer: a view sees
			// it, a copy does not.
			data[len(data)-8-4*n] ^= 0xFF
			if changed := dec[0] != vals[0]; changed != viewed {
				t.Fatalf("n=%d aligned=%v: section changed with the buffer: %v, viewed %v", n, aligned, changed, viewed)
			}
		}
	}
}

// TestContainerLyingCountCostsPresentBytes: a header announcing
// maxContainerValues values but followed by a single block must fail as a
// format error before any section is built, never costing 4×count bytes:
// the counts are checked against the container's size.
func TestContainerLyingCountCostsPresentBytes(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(containerMagic[:])
	var u16 [2]byte
	var u32 [4]byte
	var u64 [8]byte
	buf.Write(u16[:]) // name len 0
	buf.Write(u32[:]) // meta len 0
	binary.LittleEndian.PutUint16(u16[:], 1)
	buf.Write(u16[:]) // one section
	binary.LittleEndian.PutUint16(u16[:], 3)
	buf.Write(u16[:])
	buf.WriteString("reg")
	binary.LittleEndian.PutUint16(u16[:], 32)
	buf.Write(u16[:])
	binary.LittleEndian.PutUint16(u16[:], codingPlain)
	buf.Write(u16[:])
	binary.LittleEndian.PutUint64(u64[:], maxContainerValues)
	buf.Write(u64[:])
	binary.LittleEndian.PutUint64(u64[:], 4*maxContainerValues)
	buf.Write(u64[:])
	buf.Write(make([]byte, blockWords*4)) // one block of values, then EOF
	data := buf.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ParseContainer(data)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrContainerFormat) {
		t.Fatalf("short section accepted: %v", err)
	}
	const headerCost = 1 << 12
	if grew := after.TotalAlloc - before.TotalAlloc; grew > headerCost {
		t.Fatalf("rejecting the header allocated %d bytes, want at most %d", grew, headerCost)
	}
}

// Every truncation point of a valid file must produce a clean
// ErrContainerFormat, never a panic or a silently short result.
func TestContainerTruncation(t *testing.T) {
	c := randomContainer(7)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	step := len(data)/97 + 1 // sample cut points across the whole file
	for cut := 0; cut < len(data); cut += step {
		if _, err := ParseContainer(data[:cut]); !errors.Is(err, ErrContainerFormat) {
			t.Fatalf("cut at %d/%d: error %v does not wrap ErrContainerFormat", cut, len(data), err)
		}
	}
}

// bustrc02File encodes a well-formed container of the previous format,
// BUSTRC02, whose values took 8 bytes each: the kind of file a trace cache
// written before BUSTRC03 holds.
func bustrc02File() []byte {
	var body bytes.Buffer
	var u16 [2]byte
	var u32 [4]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint16(u16[:], 2)
	body.Write(u16[:])
	body.WriteString("li")
	meta := []byte(`{"Instructions":1}`)
	binary.LittleEndian.PutUint32(u32[:], uint32(len(meta)))
	body.Write(u32[:])
	body.Write(meta)
	binary.LittleEndian.PutUint16(u16[:], 1)
	body.Write(u16[:]) // one section
	binary.LittleEndian.PutUint16(u16[:], 3)
	body.Write(u16[:])
	body.WriteString("reg")
	binary.LittleEndian.PutUint16(u16[:], 32)
	body.Write(u16[:])
	vals := []uint64{1, 0xDEADBEEF, 7}
	binary.LittleEndian.PutUint64(u64[:], uint64(len(vals)))
	body.Write(u64[:])
	for _, v := range vals {
		binary.LittleEndian.PutUint64(u64[:], v)
		body.Write(u64[:])
	}
	sum := fnv.New64a()
	sum.Write(body.Bytes())
	out := append([]byte("BUSTRC02"), body.Bytes()...)
	return binary.LittleEndian.AppendUint64(out, sum.Sum64())
}

// bustrc03File encodes a well-formed container of the previous format,
// BUSTRC03: today's layout without the zero padding that aligns the values.
func bustrc03File() []byte {
	body := []byte{2, 0, 'l', 'i', 0, 0, 0, 0, 1, 0, 3, 0, 'r', 'e', 'g', 32, 0}
	body = binary.LittleEndian.AppendUint64(body, 3)
	for _, v := range []uint32{1, 0xDEADBEEF, 7} {
		body = binary.LittleEndian.AppendUint32(body, v)
	}
	sum := fnv.New64a()
	sum.Write(body)
	out := append([]byte("BUSTRC03"), body...)
	return binary.LittleEndian.AppendUint64(out, sum.Sum64())
}

// bustrc04File encodes a well-formed container of the previous format,
// BUSTRC04: 4-byte values behind the aligning padding, and no per-section
// coding or size fields.
func bustrc04File() []byte {
	body := []byte{2, 0, 'l', 'i', 0, 0, 0, 0, 1, 0, 3, 0, 'r', 'e', 'g', 32, 0}
	body = binary.LittleEndian.AppendUint64(body, 3)
	body = append(body, make([]byte, valuesPadding(8+len(body)))...)
	for _, v := range []uint32{1, 0xDEADBEEF, 7} {
		body = binary.LittleEndian.AppendUint32(body, v)
	}
	sum := fnv.New64a()
	sum.Write(body)
	out := append([]byte("BUSTRC04"), body...)
	return binary.LittleEndian.AppendUint64(out, sum.Sum64())
}

// resum rewrites data's trailing checksum to match its body, so a test
// can plant a structural fault that only the format checks can catch.
func resum(data []byte) []byte {
	sum := fnv.New64a()
	sum.Write(data[len(containerMagic) : len(data)-8])
	binary.LittleEndian.PutUint64(data[len(data)-8:], sum.Sum64())
	return data
}

func TestContainerBadMagicAndStaleVersion(t *testing.T) {
	c := &Container{Name: "x", Sections: []Section{{Name: "reg", Width: 32, Values: []uint32{1, 2}}}}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// A previous-version magic (BUSTRC01) must be rejected as stale.
	stale := append([]byte{}, data...)
	copy(stale, "BUSTRC01")
	if _, err := ParseContainer(stale); !errors.Is(err, ErrContainerFormat) {
		t.Errorf("stale-version magic accepted: %v", err)
	}
	// Whole, checksum-valid files of the three previous formats (BUSTRC02's
	// 8-byte values, BUSTRC03's unpadded 4-byte values, BUSTRC04's
	// sections without a coding or size) are stale too.
	for name, old := range map[string][]byte{"BUSTRC02": bustrc02File(), "BUSTRC03": bustrc03File(), "BUSTRC04": bustrc04File()} {
		if _, err := ParseContainer(old); !errors.Is(err, ErrContainerFormat) {
			t.Errorf("%s file accepted: %v", name, err)
		}
		// Relabelled as the current format, the old layout fails the
		// size and padding checks.
		copy(old, containerMagic[:])
		if _, err := ParseContainer(old); !errors.Is(err, ErrContainerFormat) {
			t.Errorf("%s layout under the current magic accepted: %v", name, err)
		}
	}
	// Sections wider than 32 bits do not fit 4-byte values.
	wide := &Container{Name: "x", Sections: []Section{{Name: "reg", Width: 33}}}
	if err := wide.Write(&bytes.Buffer{}); err == nil {
		t.Error("33-bit section written")
	}
	// Arbitrary garbage.
	if _, err := ParseContainer([]byte("hello world, not a trace")); !errors.Is(err, ErrContainerFormat) {
		t.Error("garbage accepted")
	}
}

// TestContainerPadding: the values start at a 4-byte-aligned offset
// behind zero padding. A file whose padding is missing, longer than
// needed or not zero must be rejected even under a valid checksum.
func TestContainerPadding(t *testing.T) {
	// A 3-byte name makes the header 8+2+3+4+2 + 2+3+2+2+8+8 = 44 bytes; a
	// 2-byte name makes it 43, which takes 1 byte of padding.
	for _, name := range []string{"xyz", "xy"} {
		c := &Container{Name: name, Sections: []Section{{Name: "reg", Width: 32, Values: []uint32{1, 2, 3}}}}
		var buf bytes.Buffer
		if err := c.Write(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		hdr := 8 + 2 + len(name) + 4 + 2 + 2 + 3 + 2 + 2 + 8 + 8
		pad := valuesPadding(hdr)
		if want := hdr + pad + 3*4 + 8; len(data) != want {
			t.Fatalf("name %q: %d bytes, want %d", name, len(data), want)
		}
		if (hdr+pad)%4 != 0 {
			t.Fatalf("name %q: values start at offset %d", name, hdr+pad)
		}
		for i, b := range data[hdr : hdr+pad] {
			if b != 0 {
				t.Fatalf("name %q: padding byte %d is %#x", name, i, b)
			}
		}
		faults := map[string][]byte{
			// One word of extra padding.
			"too long": resum(append(append(append([]byte{}, data[:hdr+pad]...), 0, 0, 0, 0), data[hdr+pad:]...)),
		}
		if pad > 0 {
			// The values moved back over the padding, as in BUSTRC03.
			faults["missing"] = resum(append(append([]byte{}, data[:hdr]...), data[hdr+pad:]...))
			nonZero := append([]byte{}, data...)
			nonZero[hdr+pad-1] = 0x80
			faults["non-zero"] = resum(nonZero)
		}
		for fault, bad := range faults {
			if _, err := ParseContainer(bad); !errors.Is(err, ErrContainerFormat) {
				t.Errorf("name %q: %s padding accepted: %v", name, fault, err)
			}
		}
	}
}

// TestContainerSectionTableOverrunsFile: a section table whose entries
// run past the end of the data, or whose counts need more bytes than the
// file holds, is rejected before the checksum is even read.
func TestContainerSectionTableOverrunsFile(t *testing.T) {
	c := randomContainer(5)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Announce more sections than the table holds: the parser reads
	// section headers out of the value bytes until the counts overrun.
	countAt := 8 + 2 + len(c.Name) + 4 + len(c.Meta)
	bad := append([]byte{}, data...)
	binary.LittleEndian.PutUint16(bad[countAt:], maxContainerSections)
	if _, err := ParseContainer(resum(bad)); !errors.Is(err, ErrContainerFormat) {
		t.Errorf("overrunning section table accepted: %v", err)
	}
	// Grow the first section's count and size by one value.
	firstCount := countAt + 2 + 2 + len(c.Sections[0].Name) + 2 + 2
	bad = append([]byte{}, data...)
	binary.LittleEndian.PutUint64(bad[firstCount:], uint64(len(c.Sections[0].Values)+1))
	binary.LittleEndian.PutUint64(bad[firstCount+8:], uint64(4*len(c.Sections[0].Values)+4))
	if _, err := ParseContainer(resum(bad)); !errors.Is(err, ErrContainerFormat) {
		t.Errorf("section count past the data accepted: %v", err)
	}
}

func TestContainerChecksumDetectsCorruption(t *testing.T) {
	c := randomContainer(3)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one payload bit somewhere after the header.
	data[len(data)/2] ^= 0x10
	if _, err := ParseContainer(data); !errors.Is(err, ErrContainerFormat) {
		t.Errorf("bit flip not detected: %v", err)
	}
}

func TestContainerRejectsOversizedFields(t *testing.T) {
	// Hand-craft a header announcing an absurd section count: the decoder
	// must bail before allocating.
	var buf bytes.Buffer
	buf.Write(containerMagic[:])
	var u16 [2]byte
	buf.Write(u16[:]) // name len 0
	var u32 [4]byte
	buf.Write(u32[:]) // meta len 0
	binary.LittleEndian.PutUint16(u16[:], 0xFFFF)
	buf.Write(u16[:]) // section count 65535
	if _, err := ParseContainer(buf.Bytes()); !errors.Is(err, ErrContainerFormat) {
		t.Errorf("oversized section count accepted: %v", err)
	}
}

func TestSectionByName(t *testing.T) {
	c := randomContainer(2)
	if s, ok := c.SectionByName("reg"); !ok || s.Name != "reg" {
		t.Error("reg section not found")
	}
	if _, ok := c.SectionByName("nope"); ok {
		t.Error("phantom section found")
	}
}

// FuzzReadContainer feeds arbitrary bytes to ParseContainer: it must
// always return (possibly an error) without panicking, and anything it
// accepts must re-encode to a container that round-trips. Each input is
// also parsed with its trailing checksum repaired, so mutations reach the
// header, padding and size checks behind the checksum.
func FuzzReadContainer(f *testing.F) {
	c := &Container{
		Name: "seed",
		Meta: []byte(`{"i":1}`),
		Sections: []Section{
			{Name: "reg", Width: 32, Values: []uint32{1, 2, 3}},
			{Name: "mem", Width: 8, Values: []uint32{0xFFFFFFFF}},
		},
	}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("BUSTRC04"))
	f.Add(bustrc02File())
	f.Add([]byte("BUSTRC02"))
	f.Add([]byte("BUSTRC01 old format"))
	f.Add([]byte{})
	f.Add(bustrc03File())
	packed := PackDeltas([]uint32{0x1000, 0x1004, 0x0FFC, 0xFFFFFFFF, 0, 0x80000000})
	c.Sections = append(c.Sections, Section{Name: "addr", Width: 32, Packed: &packed})
	buf.Reset()
	if err := c.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(bustrc04File())
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= minContainerSize {
			inputs = append(inputs, resum(append([]byte{}, data...)))
		}
		for _, in := range inputs {
			got, err := ParseContainer(in)
			if err != nil {
				if !errors.Is(err, ErrContainerFormat) {
					t.Fatalf("error %v does not wrap ErrContainerFormat", err)
				}
				continue
			}
			var out bytes.Buffer
			if err := got.Write(&out); err != nil {
				t.Fatalf("accepted container failed to re-encode: %v", err)
			}
			if !bytes.Equal(out.Bytes(), in) {
				t.Fatalf("accepted container re-encodes to different bytes")
			}
			if _, err := ParseContainer(out.Bytes()); err != nil {
				t.Fatalf("re-encoded container failed to decode: %v", err)
			}
			// An accepted packed section is the one encoding of its values.
			for _, s := range got.Sections {
				if s.Packed == nil {
					continue
				}
				vals := make([]uint32, s.Packed.Len)
				if err := s.Packed.Decode(vals); err != nil {
					t.Fatalf("accepted packed section %s fails to decode: %v", s.Name, err)
				}
				if !bytes.Equal(PackDeltas(vals).Data, s.Packed.Data) {
					t.Fatalf("accepted packed section %s is not its values' encoding", s.Name)
				}
			}
		}
	})
}

// TestMapContainerFile: MapContainer reads a written file back exactly,
// and rejects a zero-length or truncated file as a format error.
func TestMapContainerFile(t *testing.T) {
	c := randomContainer(6)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{buf.Len(), 0, minContainerSize - 1, buf.Len() / 2, buf.Len() - 1} {
		path := filepath.Join(t.TempDir(), "c.trc")
		if err := os.WriteFile(path, buf.Bytes()[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := MapContainer(f, int64(n))
		f.Close()
		if n < buf.Len() {
			if !errors.Is(err, ErrContainerFormat) {
				t.Errorf("%d of %d bytes: error %v does not wrap ErrContainerFormat", n, buf.Len(), err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !sectionsEqual(got, c) {
			t.Fatal("mapped container differs")
		}
	}
}
