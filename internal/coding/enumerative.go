package coding

import (
	"fmt"
	"math/bits"
)

// Enumerative (combinatorial-number-system) machinery shared by the
// optimal-codebook scheme families: optmem (Chee/Colbourn's optimal
// memoryless encoding), vc (the Valentini–Chiani optimal scheme),
// lowweight (their practical low-weight codes) and dvs (the Kaul-style
// voltage-scaled variant).
//
// All four map a k-bit data value to the value-th element of the Hamming
// ball around 0 on n = k + r wires, enumerated by weight and then by
// numeric value. Enumerating by weight first is what makes the codebooks
// optimal for their respective channels: low indices — and, for uniform
// data, most indices — land on low-weight words. The codebooks have 2^k
// entries, far too many to tabulate for 32-bit buses, so both directions
// run as O(n) binomial-coefficient rank/unrank arithmetic — exactly the
// adder-chain hardware the source constructions propose.

// enumMaxWires bounds the coded bus width the enumerative coders accept.
// Every ball size is at most 2^n, so n ≤ 62 keeps all rank arithmetic
// comfortably inside uint64 (and inside a bus.Word).
const enumMaxWires = 62

// binomTab[n][k] = C(n, k) for 0 ≤ k ≤ n ≤ enumMaxWires.
var binomTab = func() [][]uint64 {
	t := make([][]uint64, enumMaxWires+1)
	for n := range t {
		t[n] = make([]uint64, n+1)
		t[n][0] = 1
		for k := 1; k <= n; k++ {
			if k == n {
				t[n][k] = 1
				continue
			}
			t[n][k] = t[n-1][k-1] + t[n-1][k]
		}
	}
	return t
}()

// binom returns C(n, k), and 0 outside the triangle.
func binom(n, k int) uint64 {
	if k < 0 || n < 0 || k > n {
		return 0
	}
	return binomTab[n][k]
}

// ballSize returns |B(n, t)| = Σ_{i=0..t} C(n, i), the number of n-bit
// words of weight at most t.
func ballSize(n, t int) uint64 {
	if t >= n {
		return 1 << uint(n)
	}
	var s uint64
	for i := 0; i <= t; i++ {
		s += binom(n, i)
	}
	return s
}

// ballRadius returns the minimal t with |B(n, t)| ≥ count — the weight
// bound of a codebook holding count words on n wires.
func ballRadius(n int, count uint64) (int, error) {
	for t := 0; t <= n; t++ {
		if ballSize(n, t) >= count {
			return t, nil
		}
	}
	return 0, fmt.Errorf("coding: %d wires cannot address %d codewords", n, count)
}

// cwUnrank returns the m-th (0-based) n-bit word of weight w in
// increasing numeric order.
func cwUnrank(n, w int, m uint64) uint64 {
	var word uint64
	for p := n - 1; p >= 0 && w > 0; p-- {
		// C(p, w) words of weight w keep bit p clear.
		if c := binom(p, w); m >= c {
			word |= 1 << uint(p)
			m -= c
			w--
		}
	}
	return word
}

// cwRank inverts cwUnrank for an n-bit word.
func cwRank(n int, word uint64) uint64 {
	var m uint64
	w := bits.OnesCount64(word)
	for p := n - 1; p >= 0 && w > 0; p-- {
		if word&(1<<uint(p)) != 0 {
			m += binom(p, w)
			w--
		}
	}
	return m
}

// ballUnrank returns the idx-th n-bit word in (weight, then numeric
// value) order: index 0 is the zero word, indices 1..C(n,1) the weight-1
// words, and so on.
func ballUnrank(n int, idx uint64) uint64 {
	w := 0
	for {
		c := binom(n, w)
		if idx < c {
			return cwUnrank(n, w, idx)
		}
		idx -= c
		w++
	}
}

// unrankCacheBits sizes unrankCache: 1024 entries (16 KB), enough for
// the distinct hot values of a bus trace.
const unrankCacheBits = 10

// unrankCache is the direct-mapped value → codeword (or transition
// vector) table inside each enumerative encoder. Bus traces repeat a
// small set of values, and unranking costs an O(wires) binomial walk, so
// an encoder computes a value's image once per residency instead of once
// per cycle. The image is a pure function of the value, so Reset keeps
// the table. Keys are masked data values (< 2^61), so the all-ones
// initial key never matches.
type unrankCache struct {
	keys [1 << unrankCacheBits]uint64
	imgs [1 << unrankCacheBits]uint64
}

func (c *unrankCache) init() {
	for i := range c.keys {
		c.keys[i] = ^uint64(0)
	}
}

// slot returns v's entry and whether it already holds v's image; on a
// miss the caller stores the image through img.
func (c *unrankCache) slot(v uint64) (img *uint64, ok bool) {
	h := (v * 0x9E3779B97F4A7C15) >> (64 - unrankCacheBits)
	ok = c.keys[h] == v
	c.keys[h] = v
	return &c.imgs[h], ok
}

// ballRank inverts ballUnrank.
func ballRank(n int, word uint64) uint64 {
	w := bits.OnesCount64(word)
	return ballSize(n, w-1) + cwRank(n, word)
}

// enumStages is the shared circuit-size model for the enumerative
// coders: an n-wire rank/unrank datapath is a chain of n conditional
// binomial-coefficient adders whose operands are up to n bits wide, so
// its switched capacitance grows ~n² — normalized here to 32-bit adder
// stages (the unit the circuit model prices as one counter increment).
// This is exactly the hardware-cost argument behind the practical
// low-weight construction: splitting the bus into g groups of n/g wires
// cuts the stage count by ~g.
func enumStages(wires int) int {
	return max(1, (wires*wires+31)/32)
}

// enumCheck validates a (data width, coded wires) pair for the
// enumerative coders.
func enumCheck(kind string, width, wires int) error {
	checkWidth(width)
	if wires > enumMaxWires {
		return fmt.Errorf("coding: %s needs %d wires, above the %d-wire bus limit", kind, wires, enumMaxWires)
	}
	if wires <= width {
		return fmt.Errorf("coding: %s with %d wires adds no redundancy over %d data bits", kind, wires, width)
	}
	return nil
}
