package coding

import (
	"math"
	"math/bits"
	"testing"
)

// splitmix returns a splitmix64 generator: a source of i.i.d. uniform
// words that shares no code with the program's generators.
func splitmix(seed uint64) func() uint64 {
	return func() uint64 {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
}

// binomialPMF returns P(d = k) for d ~ Binomial(n, ½), k = 0..n.
func binomialPMF(n int) []float64 {
	p := make([]float64, n+1)
	c := 1.0
	for k := 0; k <= n; k++ {
		p[k] = c / math.Pow(2, float64(n))
		c = c * float64(n-k) / float64(k+1)
	}
	return p
}

// busInvertExpectation returns the expected transitions per cycle of
// classic bus-invert at Λ=0 on i.i.d. uniform width-bit words, and the
// fraction of cycles its invert wire is high. Whatever the bus state, the data
// wires' distance d to the next value is Binomial(width, ½), so only the
// invert wire s carries state: from s the plain form costs d+s
// transitions and the inverted form width−d+1−s, and the inverted form
// is taken only when strictly cheaper (ties go plain). That is a
// two-state Markov chain on s, and both numbers come from its stationary
// distribution. The tie rule moves only the second: a tie costs the
// same either way, but sends the bus to one side of the chain.
func busInvertExpectation(width int) (transitions, inverted float64) {
	p := binomialPMF(width)
	var flip, cost [2]float64 // flip[s] = P(s → 1−s); cost[s] = E[transitions | s]
	for s := 0; s < 2; s++ {
		for d, pd := range p {
			plain, inverted := d+s, width-d+1-s
			if inverted < plain {
				cost[s] += pd * float64(inverted)
				if s == 0 {
					flip[s] += pd
				}
			} else {
				cost[s] += pd * float64(plain)
				if s == 1 {
					flip[s] += pd
				}
			}
		}
	}
	pi1 := flip[0] / (flip[0] + flip[1])
	return (1-pi1)*cost[0] + pi1*cost[1], pi1
}

// ballExpectation is the mean Hamming weight of the 2^width
// lowest-weight (width+extra)-bit words: whole shells 0, 1, ... while
// they fit, then the rest of the next shell. A transition code that
// sends a uniformly random one of them per cycle toggles that many wires
// on average.
func ballExpectation(width, extra int) float64 {
	n := width + extra
	left := uint64(1) << width
	var sum, shell uint64 = 0, 1 // shell = C(n, k)
	for k := 0; left > 0; k++ {
		take := min(shell, left)
		sum += uint64(k) * take
		left -= take
		shell = shell * uint64(n-k) / uint64(k+1)
	}
	return float64(sum) / float64(uint64(1)<<width)
}

// couplingEvents counts eq. (3) over the adjacent pairs of a width-wire
// bus moving from old to cur, one pair at a time: a pair scores 1 when
// exactly one wire toggles and 2 when both toggle from different levels.
func couplingEvents(old, cur uint64, width int) uint64 {
	var c uint64
	for i := 0; i+1 < width; i++ {
		o0, o1 := old>>i&1, old>>(i+1)&1
		t0, t1 := (old^cur)>>i&1, (old^cur)>>(i+1)&1
		switch {
		case t0 != t1:
			c++
		case t0 == 1 && o0 != o1:
			c += 2
		}
	}
	return c
}

// TestRandomTrafficOracles checks coders with a closed-form expectation
// on i.i.d. uniform words against it: raw and Gray toggle half their
// wires (16 per cycle on 32 bits) with 31 · ¾ = 23.25 coupling events
// (each pair: one wire toggles w.p. ½, both toggle from different
// levels w.p. ⅛ at cost 2); bus-invert at Λ=0 follows the two-state
// chain of busInvertExpectation (≈ 14.191 on 32 bits), the invert
// wire's occupancy included; and vc-32+2 the mean weight of its ball
// (≈ 13.325). The 31-bit bus-invert row is the one where the plain and
// inverted forms can tie, so its occupancy checks the tie rule. Each row
// runs on three seeds, and each seed's mean must lie within 4σ of the
// expectation, σ from 120 batch means of 1,000 cycles.
func TestRandomTrafficOracles(t *testing.T) {
	const cycles, batch = 120000, 1000
	type row struct {
		name         string
		width        int
		tc           Transcoder
		wantT, wantC float64 // wantC < 0: couplings not checked
		wantInv      float64 // invert wire high; < 0: no invert wire
	}
	gray, err := NewGray(32)
	if err != nil {
		t.Fatal(err)
	}
	bi32, err := NewBusInvert(32, 0)
	if err != nil {
		t.Fatal(err)
	}
	bi31, err := NewBusInvert(31, 0)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := NewVC(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	t32, inv32 := busInvertExpectation(32)
	t31, inv31 := busInvertExpectation(31)
	rows := []row{
		{name: "raw-32", width: 32, tc: NewRaw(32), wantT: 16, wantC: 23.25, wantInv: -1},
		{name: "gray-32", width: 32, tc: gray, wantT: 16, wantC: 23.25, wantInv: -1},
		{name: "inversion-2pat-l0/32", width: 32, tc: bi32, wantT: t32, wantC: -1, wantInv: inv32},
		{name: "inversion-2pat-l0/31", width: 31, tc: bi31, wantT: t31, wantC: -1, wantInv: inv31},
		{name: "vc-32+2", width: 32, tc: vc, wantT: ballExpectation(32, 2), wantC: -1, wantInv: -1},
	}
	if got := t32; math.Abs(got-14.191) > 0.0005 {
		t.Fatalf("bus-invert expectation %.5f, want ≈ 14.191", got)
	}
	if got := ballExpectation(32, 2); math.Abs(got-13.325) > 0.0005 {
		t.Fatalf("vc-32+2 expectation %.5f, want ≈ 13.325", got)
	}
	for _, r := range rows {
		for _, seed := range []uint64{0xB05, 0x5EC0, 0xA11CE} {
			next := splitmix(seed)
			enc := r.tc.NewEncoder()
			width := enc.BusWidth()
			mask := uint64(1)<<r.width - 1
			var tMeans, cMeans, iMeans []float64
			var state uint64
			var bt, bc, bi uint64
			for i := 1; i <= cycles; i++ {
				w := uint64(enc.Encode(next() & mask))
				bt += uint64(bits.OnesCount64(state ^ w))
				if r.wantC >= 0 {
					bc += couplingEvents(state, w, width)
				}
				bi += w >> r.width & 1
				state = w
				if i%batch == 0 {
					tMeans = append(tMeans, float64(bt)/batch)
					cMeans = append(cMeans, float64(bc)/batch)
					iMeans = append(iMeans, float64(bi)/batch)
					bt, bc, bi = 0, 0, 0
				}
			}
			check := func(what string, means []float64, want float64) {
				mean, se := batchMeans(means)
				if math.Abs(mean-want) > 4*se {
					t.Errorf("%s seed %#x: %s per cycle %.4f, want %.4f ± 4·%.4f", r.name, seed, what, mean, want, se)
				}
			}
			check("transitions", tMeans, r.wantT)
			if r.wantC >= 0 {
				check("couplings", cMeans, r.wantC)
			}
			if r.wantInv >= 0 {
				check("invert-wire occupancy", iMeans, r.wantInv)
			}
		}
	}
}

// batchMeans returns the mean of the batch means and its standard error.
func batchMeans(means []float64) (mean, se float64) {
	for _, m := range means {
		mean += m
	}
	mean /= float64(len(means))
	var ss float64
	for _, m := range means {
		ss += (m - mean) * (m - mean)
	}
	n := float64(len(means))
	return mean, math.Sqrt(ss / (n - 1) / n)
}
