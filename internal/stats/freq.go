package stats

import "sort"

// Value is the element type of a value trace: uint32 for the workload
// bus traces, uint64 for wider streams.
type Value interface{ ~uint32 | ~uint64 }

// FrequencyCDF computes the cumulative distribution of the most frequent
// unique values in a trace, reproducing the statistic of the paper's
// Figure 7: point i of the result is the fraction of all trace entries
// covered by the i+1 most frequent unique values.
//
// The returned slice is non-decreasing and ends at 1 for non-empty input;
// it is empty for empty input.
func FrequencyCDF[T Value](trace []T) []float64 {
	if len(trace) == 0 {
		return nil
	}
	counts := make(map[T]int, 1024)
	for _, v := range trace {
		counts[v]++
	}
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	cdf := make([]float64, len(freqs))
	total := float64(len(trace))
	running := 0
	for i, c := range freqs {
		running += c
		cdf[i] = float64(running) / total
	}
	return cdf
}

// CoverageAt returns the fraction of trace entries covered by the n most
// frequent unique values (1.0 if n exceeds the number of unique values, 0
// for empty traces or n <= 0).
func CoverageAt(cdf []float64, n int) float64 {
	if len(cdf) == 0 || n <= 0 {
		return 0
	}
	if n > len(cdf) {
		n = len(cdf)
	}
	return cdf[n-1]
}

// WindowUniqueFraction computes the statistic of the paper's Figure 8: the
// average, over all length-window windows of the trace, of the fraction of
// values within the window that are unique (appear exactly once in that
// window). Windows slide by one position. A window size of 1 always yields
// 1. It returns 0 when the trace is shorter than the window.
func WindowUniqueFraction[T Value](trace []T, window int) float64 {
	return NewWindowUniqueProfile(trace).Fraction(window)
}

// WindowUniqueProfile answers WindowUniqueFraction queries for any window
// size from one hashing pass over the trace. Position i is unique in the
// window starting at j iff its previous occurrence of the same value lies
// before j and its next occurrence lies at or beyond j+window, so its
// contribution to the sum over all windows is the length of an interval of
// valid j — arithmetic on the (window-independent) prev/next occurrence
// arrays, with no per-window dictionary maintenance.
type WindowUniqueProfile struct {
	n          int
	prev, next []int32
}

// NewWindowUniqueProfile indexes the trace's previous/next occurrence
// structure. Traces are bounded well below 2^31 values (the trace reader
// rejects counts over 2^30), which keeps the occurrence links in int32.
func NewWindowUniqueProfile[T Value](trace []T) *WindowUniqueProfile {
	n := len(trace)
	p := &WindowUniqueProfile{
		n:    n,
		prev: make([]int32, n),
		next: make([]int32, n),
	}
	last := make(map[T]int32, 1024)
	for i, v := range trace {
		if j, ok := last[v]; ok {
			p.prev[i] = j
			p.next[j] = int32(i)
		} else {
			p.prev[i] = -1
		}
		p.next[i] = int32(n)
		last[v] = int32(i)
	}
	return p
}

// Fraction returns the average unique fraction for one window size. The
// accumulated sum is an integer (every window contributes a whole count),
// exactly representable in float64 for any realistic trace, so the result
// is bit-identical to the sliding-dictionary formulation it replaced.
func (p *WindowUniqueProfile) Fraction(window int) float64 {
	if window <= 0 || p.n < window {
		return 0
	}
	last := p.n - window
	var sum uint64
	for i := 0; i < p.n; i++ {
		lo := i - window + 1
		if lo < 0 {
			lo = 0
		}
		if pv := int(p.prev[i]) + 1; pv > lo {
			lo = pv
		}
		hi := i
		if nx := int(p.next[i]) - window; nx < hi {
			hi = nx
		}
		if last < hi {
			hi = last
		}
		if hi >= lo {
			sum += uint64(hi - lo + 1)
		}
	}
	return float64(sum) / float64(last+1) / float64(window)
}

// UniqueCount returns the number of distinct values in the trace.
func UniqueCount[T Value](trace []T) int {
	seen := make(map[T]struct{}, 1024)
	for _, v := range trace {
		seen[v] = struct{}{}
	}
	return len(seen)
}
