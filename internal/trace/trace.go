// Package trace provides storage and statistics for bus value traces: the
// BUSTRC05 container (container.go), which is both the disk trace
// cache's format and the trace file cmd/tracegen writes and
// cmd/transcode reads, and the trace-characterization statistics of the
// paper's §4.2 (unique-value CDF of Figure 7, window-uniqueness of
// Figure 8).
package trace

import "buspower/internal/stats"

// Characteristics bundles the §4.2 statistics of a trace.
type Characteristics struct {
	// Values is the trace length.
	Values int
	// Unique is the number of distinct values.
	Unique int
	// CDF is the cumulative coverage of values sorted most-frequent-first
	// (Figure 7). CDF[i] is the coverage of the i+1 hottest values.
	CDF []float64
	// WindowUnique maps window size to the average fraction of unique
	// values per window (Figure 8).
	WindowUnique map[int]float64
}

// Characterize computes the §4.2 statistics, evaluating window-uniqueness
// at the given window sizes.
func Characterize[T stats.Value](values []T, windows []int) Characteristics {
	c := Characteristics{
		Values:       len(values),
		Unique:       stats.UniqueCount(values),
		CDF:          stats.FrequencyCDF(values),
		WindowUnique: make(map[int]float64, len(windows)),
	}
	prof := stats.NewWindowUniqueProfile(values)
	for _, w := range windows {
		c.WindowUnique[w] = prof.Fraction(w)
	}
	return c
}

// CoverageAt returns the fraction of the trace covered by the n most
// frequent values.
func (c Characteristics) CoverageAt(n int) float64 {
	return stats.CoverageAt(c.CDF, n)
}
