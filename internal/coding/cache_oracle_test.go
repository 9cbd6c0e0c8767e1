package coding

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
)

// elementary returns e_n over the probabilities p with index skip left
// out (skip < 0 leaves none out): the sum, over every n-subset, of the
// product of its members.
func elementary(p []float64, skip, n int) float64 {
	e := make([]float64, n+1)
	e[0] = 1
	for i, pi := range p {
		if i == skip {
			continue
		}
		for k := n; k >= 1; k-- {
			e[k] += e[k-1] * pi
		}
	}
	return e[n]
}

// productFormHitRatio is the stationary hit ratio of an n-entry cache
// under the independent reference model with request probabilities p,
// when the cache contents S have the product-form distribution
// π(S) ∝ Π_{i∈S} p_i: the hit ratio Σ_S π(S) Σ_{i∈S} p_i is
// Σ_i p_i · P(i ∈ S), with P(i ∈ S) = p_i · e_{n−1}(p without i) / e_n(p).
// RANDOM replacement has this distribution, and FIFO has RANDOM's hit
// ratio (Gelenbe 1973).
func productFormHitRatio(p []float64, n int) float64 {
	en := elementary(p, -1, n)
	var h float64
	for i, pi := range p {
		h += pi * pi * elementary(p, i, n-1) / en
	}
	return h
}

// markovHitRatio solves a cache's Markov chain by power iteration from
// the uniform distribution: states are the cache contents, next(s, i)
// gives the successor states of s on a miss of item i (each equally
// likely), and hit(s, i) says whether s holds i.
func markovHitRatio(p []float64, states []string, hit func(s string, i int) bool, next func(s string, i int) []string) float64 {
	index := make(map[string]int, len(states))
	for k, s := range states {
		index[s] = k
	}
	pi := make([]float64, len(states))
	for k := range pi {
		pi[k] = 1 / float64(len(states))
	}
	for iter := 0; iter < 100000; iter++ {
		nxt := make([]float64, len(states))
		for k, s := range states {
			for i, pr := range p {
				if hit(s, i) {
					nxt[k] += pi[k] * pr
					continue
				}
				succ := next(s, i)
				for _, t := range succ {
					nxt[index[t]] += pi[k] * pr / float64(len(succ))
				}
			}
		}
		var diff float64
		for k := range pi {
			diff += math.Abs(nxt[k] - pi[k])
		}
		pi = nxt
		if diff < 1e-15 {
			break
		}
	}
	var h float64
	for k, s := range states {
		for i, pr := range p {
			if hit(s, i) {
				h += pi[k] * pr
			}
		}
	}
	return h
}

// zipf returns the Zipf(s) probabilities of k items.
func zipf(k int, s float64) []float64 {
	p := make([]float64, k)
	var sum float64
	for i := range p {
		p[i] = 1 / math.Pow(float64(i+1), s)
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// TestWindowCacheTheory checks the Window coder's dictionary against
// cache theory. The window keeps the last N unique values, and a hit
// does not reorder it: a FIFO cache. (a) On K = 6 items and N = 3
// entries, the product-form hit ratio must equal the brute-force
// stationary hit ratio of both the RANDOM and the FIFO cache chains.
// (b) On long Zipf streams of nonzero values (N = 4, 8, 16), the hits
// the coder reports in its own OpStats (LastHits + CodeSends: the
// previous value is always in the window) after its first N misses, which
// flush the initial zeros, must match the formula within four binomial
// standard deviations.
func TestWindowCacheTheory(t *testing.T) {
	const k, n = 6, 3
	p := zipf(k, 0.8)
	var random, fifo []string
	var perm func(s []byte)
	perm = func(s []byte) {
		if len(s) == n {
			fifo = append(fifo, string(s))
			sorted := []byte(string(s))
			sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
			if string(sorted) == string(s) {
				random = append(random, string(s))
			}
			return
		}
		for i := byte(0); i < k; i++ {
			if bytes.IndexByte(s, i) < 0 {
				perm(append(s, i))
			}
		}
	}
	perm(nil)
	has := func(s string, i int) bool { return strings.IndexByte(s, byte(i)) >= 0 }
	hRandom := markovHitRatio(p, random, has, func(s string, i int) []string {
		var out []string
		for j := range s { // evict a uniformly random entry
			b := []byte(s[:j] + s[j+1:] + string(rune(i)))
			sort.Slice(b, func(x, y int) bool { return b[x] < b[y] })
			out = append(out, string(b))
		}
		return out
	})
	hFIFO := markovHitRatio(p, fifo, has, func(s string, i int) []string {
		return []string{s[1:] + string(rune(i))} // evict the oldest
	})
	want := productFormHitRatio(p, n)
	if math.Abs(hRandom-want) > 1e-9 || math.Abs(hFIFO-want) > 1e-9 {
		t.Fatalf("K=%d N=%d: product form %.12f, RANDOM chain %.12f, FIFO chain %.12f", k, n, want, hRandom, hFIFO)
	}

	const alphabet, cycles = 64, 200000
	zp := zipf(alphabet, 1)
	cdf := make([]float64, alphabet)
	var acc float64
	for i, pr := range zp {
		acc += pr
		cdf[i] = acc
	}
	next := splitmix(0xCAC4E)
	values := make([]uint64, alphabet)
	for i := range values {
		values[i] = next()&0xFFFFFFFF | 1 // nonzero: 0 fills the fresh window
	}
	for _, entries := range []int{4, 8, 16} {
		w, err := NewWindow(32, entries, 1)
		if err != nil {
			t.Fatal(err)
		}
		enc := w.NewEncoder()
		ops := func() OpStats { return enc.(OpReporter).Ops() }
		var warm OpStats
		for c := 0; c < cycles; c++ {
			u := float64(next()>>11) / (1 << 53)
			i := min(sort.SearchFloat64s(cdf, u), alphabet-1)
			enc.Encode(values[i])
			if warm.Cycles == 0 && ops().RawSends == uint64(entries) {
				warm = ops()
			}
		}
		end := ops()
		m := float64(end.Cycles - warm.Cycles)
		hits := float64(end.LastHits + end.CodeSends - warm.LastHits - warm.CodeSends)
		h := productFormHitRatio(zp, entries)
		sd := math.Sqrt(m * h * (1 - h))
		if math.Abs(hits-m*h) > 4*sd {
			t.Errorf("window-%d: %.0f hits in %.0f cycles (%.4f), theory %.4f ± 4·%.4f", entries, hits, m, hits/m, h, sd/m)
		}
	}
}
