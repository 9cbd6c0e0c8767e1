package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
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
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = rng.Uint64()
		}
		c.Sections = append(c.Sections, Section{
			Name:   []string{"reg", "mem", "addr", "extra"}[s],
			Width:  1 + int(rng.Uint32()%64),
			Values: vals,
		})
	}
	return c
}

// Round-trip property: Write then ReadContainer reproduces every field for
// a spread of random sizes, including sections straddling the 64 KiB block
// boundary and empty sections.
func TestContainerRoundTripProperty(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		orig := randomContainer(seed)
		var buf bytes.Buffer
		if err := orig.Write(&buf); err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		got, err := ReadContainer(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: read: %v", seed, err)
		}
		if got.Name != orig.Name || !bytes.Equal(got.Meta, orig.Meta) {
			t.Fatalf("seed %d: header mismatch: %+v", seed, got)
		}
		if len(got.Sections) != len(orig.Sections) {
			t.Fatalf("seed %d: %d sections, want %d", seed, len(got.Sections), len(orig.Sections))
		}
		for i, s := range orig.Sections {
			g := got.Sections[i]
			if g.Name != s.Name || g.Width != s.Width || len(g.Values) != len(s.Values) {
				t.Fatalf("seed %d section %d: shape mismatch", seed, i)
			}
			for j := range s.Values {
				if g.Values[j] != s.Values[j] {
					t.Fatalf("seed %d section %d value %d differs", seed, i, j)
				}
			}
		}
	}
}

// TestContainerRoundTripBlockBoundary round-trips sections around the
// block size and at the experiments' full trace length, and requires each
// decoded section to be exactly as long as its data: decoded traces stay
// resident in the trace cache, so spare capacity is memory held for
// nothing.
func TestContainerRoundTripBlockBoundary(t *testing.T) {
	for _, n := range []int{0, 1, blockWords - 1, blockWords, blockWords + 1, 120_000} {
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(i) * 0x9E3779B97F4A7C15
		}
		c := &Container{Name: "b", Sections: []Section{{Name: "reg", Width: 32, Values: vals}}}
		var buf bytes.Buffer
		if err := c.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadContainer(&buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		dec := got.Sections[0].Values
		if len(dec) != n || cap(dec) != n {
			t.Fatalf("n=%d: decoded len %d cap %d, want both %d", n, len(dec), cap(dec), n)
		}
		for i, v := range vals {
			if dec[i] != v {
				t.Fatalf("n=%d: value %d differs", n, i)
			}
		}
	}
}

// TestContainerLyingCountCostsPresentBytes: a header announcing
// maxContainerValues values but followed by a single block must fail as a
// format error after allocating a few blocks' worth, never 8×count bytes.
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
	binary.LittleEndian.PutUint64(u64[:], maxContainerValues)
	buf.Write(u64[:])
	buf.Write(make([]byte, blockWords*8)) // one block of values, then EOF
	data := buf.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadContainer(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrContainerFormat) {
		t.Fatalf("short section accepted: %v", err)
	}
	const blockBytes = blockWords * 8
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*blockBytes {
		t.Fatalf("decoding one present block allocated %d bytes, want at most %d", grew, 8*blockBytes)
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
		if _, err := ReadContainer(bytes.NewReader(data[:cut])); !errors.Is(err, ErrContainerFormat) {
			t.Fatalf("cut at %d/%d: error %v does not wrap ErrContainerFormat", cut, len(data), err)
		}
	}
}

func TestContainerBadMagicAndStaleVersion(t *testing.T) {
	c := &Container{Name: "x", Sections: []Section{{Name: "reg", Width: 32, Values: []uint64{1, 2}}}}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// A previous-version magic (BUSTRC01) must be rejected as stale.
	stale := append([]byte{}, data...)
	copy(stale, "BUSTRC01")
	if _, err := ReadContainer(bytes.NewReader(stale)); !errors.Is(err, ErrContainerFormat) {
		t.Errorf("stale-version magic accepted: %v", err)
	}
	// Arbitrary garbage.
	if _, err := ReadContainer(bytes.NewReader([]byte("hello world, not a trace"))); !errors.Is(err, ErrContainerFormat) {
		t.Error("garbage accepted")
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
	if _, err := ReadContainer(bytes.NewReader(data)); !errors.Is(err, ErrContainerFormat) {
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
	if _, err := ReadContainer(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrContainerFormat) {
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

// The BUSTRC01 block-I/O conversion must keep the byte stream identical to
// the original per-value encoding.
func TestTraceWriteBytesUnchangedByBlockIO(t *testing.T) {
	tr := &Trace{Name: "gcc/reg", Width: 32, Values: make([]uint64, blockWords+13)}
	rng := stats.NewRNG(99)
	for i := range tr.Values {
		tr.Values[i] = rng.Uint64()
	}
	var got bytes.Buffer
	if err := tr.Write(&got); err != nil {
		t.Fatal(err)
	}
	// Reference encoding: the BUSTRC01 layout written one value at a time.
	var want bytes.Buffer
	want.Write(magic[:])
	var u16 [2]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(tr.Name)))
	want.Write(u16[:])
	want.WriteString(tr.Name)
	binary.LittleEndian.PutUint16(u16[:], uint16(tr.Width))
	want.Write(u16[:])
	binary.LittleEndian.PutUint64(u64[:], uint64(len(tr.Values)))
	want.Write(u64[:])
	for _, v := range tr.Values {
		binary.LittleEndian.PutUint64(u64[:], v)
		want.Write(u64[:])
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("block-encoded BUSTRC01 bytes differ from the per-value encoding")
	}
}

// FuzzReadContainer feeds arbitrary bytes to the decoder: it must always
// return (possibly an error) without panicking, and anything it accepts
// must re-encode to a container that round-trips.
func FuzzReadContainer(f *testing.F) {
	c := &Container{
		Name: "seed",
		Meta: []byte(`{"i":1}`),
		Sections: []Section{
			{Name: "reg", Width: 32, Values: []uint64{1, 2, 3}},
			{Name: "mem", Width: 64, Values: []uint64{0xFFFFFFFFFFFFFFFF}},
		},
	}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("BUSTRC02"))
	f.Add([]byte("BUSTRC01 old format"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadContainer(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.Write(&out); err != nil {
			t.Fatalf("accepted container failed to re-encode: %v", err)
		}
		if _, err := ReadContainer(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-encoded container failed to decode: %v", err)
		}
	})
}
