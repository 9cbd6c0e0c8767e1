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

// BenchmarkKernels times trace and container serialization. Sub-benchmark
// names are stable across changes, so before/after comparisons keep
// meaning the same operation.
func BenchmarkKernels(b *testing.B) {
	b.Run("Trace.Write/120k", benchTraceWrite)
	b.Run("Trace.Read/120k", benchTraceRead)
	b.Run("Container.Write/3x120k", benchContainerWrite)
	b.Run("Container.Read/3x120k", benchContainerRead)
}

func benchTraceValues(n int) []uint64 {
	rng := stats.NewRNG(7)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64() & 0xFFFFFFFF
	}
	return out
}

func benchTraceWrite(b *testing.B) {
	tr := &Trace{Name: "bench/reg", Width: 32, Values: benchTraceValues(benchTraceSize)}
	b.SetBytes(int64(len(tr.Values)) * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTraceRead(b *testing.B) {
	tr := &Trace{Name: "bench/reg", Width: 32, Values: benchTraceValues(benchTraceSize)}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchContainer mirrors one disk-cache entry: three bus sections at the
// full default trace length.
func benchContainer() *Container {
	return &Container{
		Name: "bench",
		Meta: []byte(`{"instructions":1500000,"cycles":2000000}`),
		Sections: []Section{
			{Name: "reg", Width: 32, Values: benchTraceValues(benchTraceSize)},
			{Name: "mem", Width: 32, Values: benchTraceValues(benchTraceSize)},
			{Name: "addr", Width: 32, Values: benchTraceValues(benchTraceSize)},
		},
	}
}

func benchContainerWrite(b *testing.B) {
	c := benchContainer()
	b.SetBytes(3 * benchTraceSize * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func benchContainerRead(b *testing.B) {
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
		if _, err := ReadContainer(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
