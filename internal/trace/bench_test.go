package trace

import (
	"bytes"
	"io"
	"testing"

	"buspower/internal/stats"
)

// benchTraceSize matches the default run's per-bus trace length, so the
// serialization benchmarks measure the payload the trace cache moves.
const benchTraceSize = 120_000

// BenchmarkKernels times container serialization and delta coding.
// Sub-benchmark names are stable across changes, so before/after
// comparisons keep meaning the same operation.
func BenchmarkKernels(b *testing.B) {
	b.Run("Container.Write/3x120k", benchContainerWrite)
	b.Run("Container.Parse/3x120k", benchContainerParse)
	b.Run("Deltas.Pack/120k", benchDeltasPack)
	b.Run("Deltas.Decode/120k", benchDeltasDecode)
}

func benchTraceValues(n int) []uint64 {
	rng := stats.NewRNG(7)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64() & 0xFFFFFFFF
	}
	return out
}

// benchBeats is benchTraceValues in the 4-byte form containers hold.
func benchBeats(n int) []uint32 {
	out := make([]uint32, n)
	for i, v := range benchTraceValues(n) {
		out[i] = uint32(v)
	}
	return out
}

// benchAddrs is an address-bus-like stream: mostly small steps from the
// previous address, with an occasional jump.
func benchAddrs(n int) []uint32 {
	rng := stats.NewRNG(11)
	out := make([]uint32, n)
	a := uint32(0x10000)
	for i := range out {
		if r := rng.Uint32(); r%8 == 0 {
			a = r &^ 3
		} else {
			a += (r>>8)%128 - 64
		}
		out[i] = a
	}
	return out
}

// benchContainer mirrors one disk-cache entry: three bus sections at the
// full default trace length, the address bus packed.
func benchContainer() *Container {
	addrs := PackDeltas(benchAddrs(benchTraceSize))
	return &Container{
		Name: "bench",
		Meta: []byte(`{"instructions":1500000,"cycles":2000000}`),
		Sections: []Section{
			{Name: "reg", Width: 32, Values: benchBeats(benchTraceSize)},
			{Name: "mem", Width: 32, Values: benchBeats(benchTraceSize)},
			{Name: "addr", Width: 32, Packed: &addrs},
		},
	}
}

func benchContainerWrite(b *testing.B) {
	c := benchContainer()
	b.SetBytes(int64(2*benchTraceSize*4 + len(c.Sections[2].Packed.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func benchContainerParse(b *testing.B) {
	c := benchContainer()
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseContainer(data); err != nil {
			b.Fatal(err)
		}
	}
}

// deltasSink keeps the packing benchmark's result alive.
var deltasSink Deltas

func benchDeltasPack(b *testing.B) {
	vals := benchAddrs(benchTraceSize)
	b.SetBytes(4 * benchTraceSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deltasSink = PackDeltas(vals)
	}
}

func benchDeltasDecode(b *testing.B) {
	d := PackDeltas(benchAddrs(benchTraceSize))
	dst := make([]uint32, d.Len)
	b.SetBytes(4 * benchTraceSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Decode(dst); err != nil {
			b.Fatal(err)
		}
	}
}
