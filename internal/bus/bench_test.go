package bus

import (
	"testing"

	"buspower/internal/stats"
)

// BenchmarkKernels times the metering hot paths. Sub-benchmark names are
// stable across changes, so a before/after comparison (for example with
// benchstat) keeps meaning "the same operation" as implementations change
// underneath.
func BenchmarkKernels(b *testing.B) {
	b.Run("Meter.Record/dense-32", func(b *testing.B) { benchMeterRecord(b, denseTrace(4096, 32), 32) })
	b.Run("Meter.Record/sparse-64", func(b *testing.B) { benchMeterRecord(b, sparseTrace(4096), 64) })
	b.Run("Meter.RecordValues/dense-32", benchMeterRecordValues)
}

// denseTrace is uniformly random traffic: roughly half of all wires toggle
// every cycle, the busiest case for the meter.
func denseTrace(n int, width int) []Word {
	rng := stats.NewRNG(1)
	mask := Mask(width)
	out := make([]Word, n)
	for i := range out {
		out[i] = Word(rng.Uint64()) & mask
	}
	return out
}

// sparseTrace toggles exactly one high-order wire per cycle — the paper's
// "quiet bus" regime (most cycles move little), and the worst case for
// bit-serial accounting loops that walk from wire 0 to the highest
// toggled wire.
func sparseTrace(n int) []Word {
	out := make([]Word, n)
	for i := range out {
		if i%2 == 1 {
			out[i] = 1 << 62
		}
	}
	return out
}

func benchMeterRecord(b *testing.B, trace []Word, width int) {
	m := NewMeterLite(width)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Record(trace[i&4095])
	}
}

func benchMeterRecordValues(b *testing.B) {
	trace := denseTrace(4096, 32)
	b.SetBytes(int64(len(trace)) * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMeterLite(32)
		RecordValues(m, trace)
		if m.Cycles() == 0 {
			b.Fatal("empty measurement")
		}
	}
}
