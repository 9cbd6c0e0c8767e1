package coding

import (
	"fmt"
	"testing"
	"testing/quick"

	"buspower/internal/bus"
	"buspower/internal/stats"
	"buspower/internal/workload"
)

// allTranscoders returns one representative instance of every scheme at
// the given data width, for table-driven round-trip testing.
func allTranscoders(t *testing.T, width int) []Transcoder {
	t.Helper()
	var ts []Transcoder
	ts = append(ts, NewRaw(width))
	if inv, err := NewBusInvert(width, 0); err == nil {
		ts = append(ts, inv)
	} else {
		t.Fatal(err)
	}
	pats, err := DefaultInversionPatterns(width, 4)
	if err != nil {
		t.Fatal(err)
	}
	inv4, err := NewInversion(width, pats, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts = append(ts, inv4)
	st, err := NewStride(width, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts = append(ts, st)
	win, err := NewWindow(width, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts = append(ts, win)
	ctxV, err := NewContext(ContextConfig{Width: width, TableSize: 12, ShiftEntries: 4, DividePeriod: 64, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts = append(ts, ctxV)
	ctxT, err := NewContext(ContextConfig{Width: width, TableSize: 12, ShiftEntries: 4, DividePeriod: 64, TransitionBased: true, Lambda: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts = append(ts, ctxT)
	return ts
}

// traceKinds generates the value-stream shapes the coders must survive.
func traceKinds(width int, n int) map[string][]uint64 {
	mask := uint64(bus.Mask(width))
	rng := stats.NewRNG(17)
	random := make([]uint64, n)
	for i := range random {
		random[i] = rng.Uint64() & mask
	}
	repeated := make([]uint64, n)
	v := uint64(0xDEADBEEF) & mask
	for i := range repeated {
		if i%7 == 0 {
			v = rng.Uint64() & mask
		}
		repeated[i] = v
	}
	strided := make([]uint64, n)
	for i := range strided {
		strided[i] = (uint64(i) * 4) & mask
	}
	hotset := make([]uint64, n)
	hot := []uint64{1 & mask, 0x42 & mask, 0x1000 & mask, 0xFFFF & mask, 7, 9, 100, 200}
	for i := range hotset {
		if rng.Intn(10) == 0 {
			hotset[i] = rng.Uint64() & mask
		} else {
			hotset[i] = hot[rng.Intn(len(hot))]
		}
	}
	zeros := make([]uint64, n)
	interleaved := make([]uint64, n)
	for i := range interleaved {
		switch i % 3 {
		case 0:
			interleaved[i] = uint64(i) & mask
		case 1:
			interleaved[i] = hot[i%len(hot)]
		default:
			interleaved[i] = rng.Uint64() & mask
		}
	}
	return map[string][]uint64{
		"random":      random,
		"repeated":    repeated,
		"strided":     strided,
		"hotset":      hotset,
		"zeros":       zeros,
		"interleaved": interleaved,
	}
}

// The central correctness property: for every scheme and every traffic
// shape, the decoder reconstructs the exact input stream from wire states
// alone.
func TestRoundTripAllSchemes(t *testing.T) {
	for _, width := range []int{8, 32} {
		for name, trace := range traceKinds(width, 400) {
			for _, tc := range allTranscoders(t, width) {
				if _, err := Evaluate(tc, trace, 1); err != nil {
					t.Errorf("width %d, trace %s: %v", width, name, err)
				}
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	win, _ := NewWindow(16, 8, 1)
	ctx, _ := NewContext(ContextConfig{Width: 16, TableSize: 10, ShiftEntries: 4, DividePeriod: 32, Lambda: 1})
	str, _ := NewStride(16, 4, 1)
	schemes := []Transcoder{win, ctx, str}
	f := func(raw []uint16) bool {
		trace := make([]uint64, len(raw))
		for i, v := range raw {
			trace[i] = uint64(v)
		}
		for _, s := range schemes {
			if _, err := Evaluate(s, trace, 1); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRawIsIdentity(t *testing.T) {
	r := NewRaw(32)
	enc := r.NewEncoder()
	if enc.BusWidth() != 32 {
		t.Errorf("raw bus width = %d, want 32", enc.BusWidth())
	}
	res := MustEvaluate(r, []uint64{1, 2, 3, 2, 1}, 1)
	if res.EnergyRemoved() != 0 {
		t.Errorf("raw coder must remove nothing, got %v", res.EnergyRemoved())
	}
	if res.Raw.Transitions() != res.Coded.Transitions() {
		t.Error("raw coder changed the transition count")
	}
}

func TestCodebookProperties(t *testing.T) {
	cb, err := NewCodebook(32, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cb.Size() != 40 {
		t.Fatalf("Size = %d", cb.Size())
	}
	if cb.Code(0) != 0 {
		t.Error("code 0 must be the zero vector (LAST)")
	}
	seen := map[bus.Word]bool{}
	prevCost := -1.0
	for i := 0; i < cb.Size(); i++ {
		c := cb.Code(i)
		if seen[c] {
			t.Fatalf("duplicate codeword %#x", c)
		}
		seen[c] = true
		if idx, ok := cb.Index(c); !ok || idx != i {
			t.Fatalf("Index(Code(%d)) = %d, %v", i, idx, ok)
		}
		if i == 0 {
			continue
		}
		cost := float64(bus.Weight(c)) + float64(bus.ExpectedSelfCoupling(c, 32))/2
		if cost < prevCost {
			t.Errorf("codeword %d (%#x) cost %v cheaper than predecessor %v", i, c, cost, prevCost)
		}
		prevCost = cost
	}
	// First 1+32 codes must be weight <= 1.
	for i := 1; i <= 32; i++ {
		if bus.Weight(cb.Code(i)) != 1 {
			t.Errorf("code %d has weight %d, want 1", i, bus.Weight(cb.Code(i)))
		}
	}
}

func TestCodebookEdgeBitsFirst(t *testing.T) {
	// With Λ > 0, the weight-1 codes on edge wires (one coupling pair)
	// must precede interior wires (two coupling pairs).
	cb, err := NewCodebook(8, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	first := cb.Code(1)
	second := cb.Code(2)
	edges := map[bus.Word]bool{1 << 0: true, 1 << 7: true}
	if !edges[first] || !edges[second] {
		t.Errorf("first weight-1 codes should use edge wires, got %#x, %#x", first, second)
	}
}

// TestCouplingAwareCodebookPays states the claim behind ordering
// codewords by coupling as well as weight: on hot-value traffic metered
// at Λ=1, a Window coder built for λ=1 costs less than one built for
// λ=0 (by 1.05% at the time of writing; the two differ only in codeword
// order and in the raw-vs-inverted choice on a miss).
func TestCouplingAwareCodebookPays(t *testing.T) {
	rng := stats.NewRNG(424242)
	hot := make([]uint64, 8)
	for i := range hot {
		hot[i] = rng.Uint64() & 0xFFFFFFFF
	}
	trace := make([]uint64, 20000)
	for i := range trace {
		if rng.Intn(6) == 0 {
			trace[i] = rng.Uint64() & 0xFFFFFFFF
		} else {
			trace[i] = hot[rng.Intn(len(hot))]
		}
	}
	cost := func(lambda float64) float64 {
		win, err := NewWindow(32, 8, lambda)
		if err != nil {
			t.Fatal(err)
		}
		return MustEvaluate(win, trace, 1).CodedCost()
	}
	if weightOnly, aware := cost(0), cost(1); aware >= weightOnly {
		t.Errorf("at Λ=1 the λ=1 codebook costs %.0f, not below the λ=0 codebook's %.0f", aware, weightOnly)
	}
}

func TestCodebookSizeLimits(t *testing.T) {
	if _, err := NewCodebook(8, 0, 1); err == nil {
		t.Error("size 0 should fail")
	}
	// width 8: 1 + 8 + 28 + 56 = 93 max.
	if _, err := NewCodebook(8, 93, 1); err != nil {
		t.Errorf("size 93 should succeed: %v", err)
	}
	if _, err := NewCodebook(8, 94, 1); err == nil {
		t.Error("size 94 should exceed weight-3 capacity for width 8")
	}
}

func TestChannelProtocol(t *testing.T) {
	ch := newChannel(8, 1)
	dch := newDecodeChannel(8)
	// Code path: control wires stay put.
	w := ch.sendCode(0b101)
	mode, payload := dch.observe(w)
	if mode != modeCode || payload != 0b101 {
		t.Errorf("code path: mode %v payload %#x", mode, payload)
	}
	// Raw path: value recovered regardless of inversion choice.
	w, _ = ch.sendRaw(0xA5)
	mode, payload = dch.observe(w)
	if mode == modeCode || uint64(payload) != 0xA5 {
		t.Errorf("raw path: mode %v payload %#x", mode, payload)
	}
	// Inverted form is chosen when cheaper: from state with data 0xA5,
	// sending 0x5A raw would flip all 8 data wires; inverted flips none.
	w, inverted := ch.sendRaw(0x5A)
	if !inverted {
		t.Error("expected inverted form for complement value")
	}
	mode, payload = dch.observe(w)
	if mode != modeRawInverted || uint64(payload) != 0x5A {
		t.Errorf("inverted path: mode %v payload %#x", mode, payload)
	}
}

func TestChannelDesyncPanics(t *testing.T) {
	dch := newDecodeChannel(8)
	dch.observe(0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic when both control wires toggle")
		}
	}()
	dch.observe(bus.Word(0b11) << 8)
}

func TestLastValueCodeZeroCostsNothing(t *testing.T) {
	// A constant stream must cost zero transitions under every stateful
	// scheme (LAST-value folded in with code 0).
	trace := make([]uint64, 100)
	for i := range trace {
		trace[i] = 0x1234
	}
	win, _ := NewWindow(16, 8, 1)
	str, _ := NewStride(16, 4, 1)
	ctx, _ := NewContext(ContextConfig{Width: 16, TableSize: 8, ShiftEntries: 4, DividePeriod: 0, Lambda: 1})
	for _, tc := range []Transcoder{win, str, ctx} {
		res := MustEvaluate(tc, trace, 1)
		// Only the initial raw send of 0x1234 may cost anything.
		enc := tc.NewEncoder()
		first := enc.Encode(0x1234)
		firstCost := bus.Cost(0, first, enc.BusWidth(), 1)
		if firstCost == 0 {
			t.Fatalf("%s: initial raw send unexpectedly free", tc.Name())
		}
		if got := res.CodedCost(); got != firstCost {
			t.Errorf("%s: constant stream cost %v, want only the initial send %v", tc.Name(), got, firstCost)
		}
	}
}

func TestWindowHitUsesWeightOneCode(t *testing.T) {
	win, _ := NewWindow(32, 8, 1)
	enc := win.NewEncoder()
	vals := []uint64{10, 20, 30, 40}
	var prev bus.Word
	for _, v := range vals {
		prev = enc.Encode(v)
	}
	// Revisiting value 10 (in the register, not the last value) must
	// toggle exactly one data wire and no control wires.
	w := enc.Encode(10)
	if got := bus.Weight(prev ^ w); got != 1 {
		t.Errorf("window hit toggled %d wires, want 1", got)
	}
}

func TestWindowEviction(t *testing.T) {
	win, _ := NewWindow(32, 2, 1)
	enc := win.NewEncoder().(*windowEncoder)
	enc.Encode(1)
	enc.Encode(2)
	enc.Encode(3) // evicts 1 (the register also held initial zeros; slots cycle)
	// Register of size 2 now holds {2, 3} at some slots.
	if enc.st.find(2) < 0 || enc.st.find(3) < 0 {
		t.Error("window should retain the two most recent unique values")
	}
	if enc.st.find(1) >= 0 {
		t.Error("window failed to evict the oldest value")
	}
}

func TestWindowOpsAccounting(t *testing.T) {
	win, _ := NewWindow(32, 8, 1)
	enc := win.NewEncoder()
	enc.Encode(5) // miss -> raw + shift
	enc.Encode(5) // last hit
	enc.Encode(9) // miss
	enc.Encode(5) // dictionary hit
	ops := enc.(OpReporter).Ops()
	if ops.Cycles != 4 {
		t.Errorf("Cycles = %d", ops.Cycles)
	}
	if ops.RawSends != 2 || ops.LastHits != 1 || ops.CodeSends != 1 {
		t.Errorf("ops breakdown wrong: %+v", ops)
	}
	if ops.Shifts != 2 {
		t.Errorf("Shifts = %d, want 2", ops.Shifts)
	}
	if ops.PartialMatches != 4*8 {
		t.Errorf("PartialMatches = %d, want 32", ops.PartialMatches)
	}
}

// TestWindowNonInclusion documents why a register-size sweep evaluates
// every size on its own ring instead of deriving small registers from
// the largest one's probe record: FIFO insert-on-miss dictionaries lack
// the inclusion property. After a b c d a b e a b c d, the value e HITS the
// 3-entry register while MISSING the 4-entry one — so no per-cycle
// record of the superset register can reconstruct a subset's answers.
func TestWindowNonInclusion(t *testing.T) {
	const width = 8
	seq := []uint64{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4}
	enc3 := mustWindowEncoder(t, width, 3)
	enc4 := mustWindowEncoder(t, width, 4)
	for _, v := range seq {
		enc3.Encode(v)
		enc4.Encode(v)
	}
	b3, b4 := enc3.ops, enc4.ops
	enc3.Encode(5)
	enc4.Encode(5)
	if enc3.ops.CodeSends != b3.CodeSends+1 {
		t.Fatalf("3-entry register should hit on the final value (ops %+v → %+v)", b3, enc3.ops)
	}
	if enc4.ops.RawSends != b4.RawSends+1 {
		t.Fatalf("4-entry register should miss on the final value (ops %+v → %+v)", b4, enc4.ops)
	}
}

func mustWindowEncoder(t testing.TB, width, entries int) *windowEncoder {
	t.Helper()
	w, err := NewWindow(width, entries, 1)
	if err != nil {
		t.Fatal(err)
	}
	return w.NewEncoder().(*windowEncoder)
}

func TestStridePrediction(t *testing.T) {
	str, _ := NewStride(32, 4, 1)
	enc := str.NewEncoder()
	// Arithmetic sequence with stride 3: after warm-up, stride-1 predictor
	// hits every time, producing weight<=1 transitions.
	var prev bus.Word
	misses := 0
	for i := 0; i < 50; i++ {
		w := enc.Encode(uint64(100 + 3*i))
		if i >= 2 && bus.Weight(prev^w) > 1 {
			misses++
		}
		prev = w
	}
	if misses != 0 {
		t.Errorf("stride predictor missed %d times on a pure stride-3 sequence", misses)
	}
}

func TestStrideInterleavedStreams(t *testing.T) {
	// Two interleaved arithmetic streams: stride-2 predictors catch both.
	str, _ := NewStride(32, 4, 1)
	enc := str.NewEncoder()
	var prev bus.Word
	misses := 0
	for i := 0; i < 60; i++ {
		var v uint64
		if i%2 == 0 {
			v = uint64(1000 + 5*(i/2))
		} else {
			v = uint64(70000 + 11*(i/2))
		}
		w := enc.Encode(v)
		if i >= 4 && bus.Weight(prev^w) > 1 {
			misses++
		}
		prev = w
	}
	if misses != 0 {
		t.Errorf("stride-2 interleaved streams missed %d times", misses)
	}
}

func TestStrideWrapsModuloWidth(t *testing.T) {
	// Strides that overflow the data width must wrap consistently on both
	// ends rather than diverge.
	str, _ := NewStride(8, 3, 1)
	trace := make([]uint64, 100)
	for i := range trace {
		trace[i] = uint64(i*37) & 0xFF
	}
	if _, err := Evaluate(str, trace, 1); err != nil {
		t.Error(err)
	}
}

// TestBusInvertBoundsTransitions checks Stan and Burleson's bound on
// classic bus-invert: at assumed Λ = 0 the coder picks the cheaper of
// the raw and complemented word, and the two candidates' toggles over
// the w data wires plus the invert wire sum to w+1, so no cycle toggles
// more than ⌈(w+1)/2⌉ wires. The inputs are random traces at widths 1,
// 2, 32 and 62 and the quick-mode li register and swim memory bus
// traces.
func TestBusInvertBoundsTransitions(t *testing.T) {
	type input struct {
		name  string
		width int
		vals  []uint64
	}
	var inputs []input
	rng := stats.NewRNG(3)
	for _, w := range []int{1, 2, 32, 62} {
		for k := 0; k < 4; k++ {
			vals := make([]uint64, 1+rng.Intn(500))
			for i := range vals {
				vals[i] = rng.Uint64() & uint64(bus.Mask(w))
			}
			inputs = append(inputs, input{fmt.Sprintf("random/w%d/%d", w, k), w, vals})
		}
	}
	// The experiments' quick-mode run bound.
	quickRun := workload.RunConfig{MaxInstructions: 250_000, MaxBusValues: 25_000}
	li, err := workload.Traces("li", quickRun)
	if err != nil {
		t.Fatal(err)
	}
	swim, err := workload.Traces("swim", quickRun)
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"li-reg", 32, li.Reg}, input{"swim-mem", 32, swim.Mem})

	for _, in := range inputs {
		tc, err := NewBusInvert(in.width, 0)
		if err != nil {
			t.Fatal(err)
		}
		enc := tc.NewEncoder()
		if got := enc.BusWidth(); got != in.width+1 {
			t.Fatalf("%s: bus-invert drives %d wires, want %d", in.name, got, in.width+1)
		}
		// ⌈(w+1)/2⌉, counted from the encoder's initial all-zero state.
		bound := (in.width + 2) / 2
		var prev bus.Word
		for i, v := range in.vals {
			cur := enc.Encode(v)
			if n := bus.Weight(prev ^ cur); n > bound {
				t.Fatalf("%s: cycle %d toggles %d wires, bound ⌈(%d+1)/2⌉ = %d", in.name, i, n, in.width, bound)
			}
			prev = cur
		}
	}
}

func TestBusInvertBeatsRawOnAntagonisticTraffic(t *testing.T) {
	// Alternating complement values: raw costs W transitions per cycle,
	// bus-invert costs ~1 (just the invert wire).
	trace := make([]uint64, 200)
	for i := range trace {
		if i%2 == 0 {
			trace[i] = 0
		} else {
			trace[i] = 0xFFFFFFFF
		}
	}
	inv, _ := NewBusInvert(32, 0)
	res := MustEvaluate(inv, trace, 0)
	if res.EnergyRemoved() < 0.9 {
		t.Errorf("bus-invert removed only %.2f of antagonistic traffic energy", res.EnergyRemoved())
	}
}

func TestInversionLambdaAwareCoding(t *testing.T) {
	// The λN coder must never do worse than λ0 when evaluated at high
	// actual Λ on coupling-antagonistic traffic.
	const actualLambda = 8.0
	rng := stats.NewRNG(41)
	trace := make([]uint64, 2000)
	for i := range trace {
		trace[i] = rng.Uint64()
	}
	pats, _ := DefaultInversionPatterns(32, 4)
	l0, _ := NewInversion(32, pats, 0)
	lN, _ := NewInversion(32, pats, actualLambda)
	res0 := MustEvaluate(l0, trace, actualLambda)
	resN := MustEvaluate(lN, trace, actualLambda)
	if resN.CodedCost() > res0.CodedCost()*1.001 {
		t.Errorf("λN coder (%.0f) worse than λ0 coder (%.0f) at Λ=%v",
			resN.CodedCost(), res0.CodedCost(), actualLambda)
	}
}

func TestInversionValidation(t *testing.T) {
	if _, err := NewInversion(32, []uint64{1, 2}, 0); err == nil {
		t.Error("pattern set without zero must be rejected")
	}
	if _, err := NewInversion(32, []uint64{0, 0xFF, 0xFF}, 0); err == nil {
		t.Error("duplicate patterns must be rejected")
	}
	if _, err := NewInversion(32, nil, 0); err == nil {
		t.Error("empty pattern set must be rejected")
	}
	if _, err := DefaultInversionPatterns(32, 9); err == nil {
		t.Error("oversized default pattern request must be rejected")
	}
}

func TestSpatialOneTransitionPerValue(t *testing.T) {
	sp, err := NewSpatial(4)
	if err != nil {
		t.Fatal(err)
	}
	enc := sp.NewEncoder()
	if enc.BusWidth() != 16 {
		t.Fatalf("spatial bus width = %d, want 16", enc.BusWidth())
	}
	rng := stats.NewRNG(9)
	prev := bus.Word(0)
	for i := 0; i < 200; i++ {
		w := enc.Encode(rng.Uint64() & 0xF)
		if got := bus.Weight(prev ^ w); got != 1 {
			t.Fatalf("spatial coder made %d transitions, want exactly 1", got)
		}
		prev = w
	}
}

func TestSpatialRoundTrip(t *testing.T) {
	sp, _ := NewSpatial(5)
	rng := stats.NewRNG(2)
	trace := make([]uint64, 300)
	for i := range trace {
		trace[i] = rng.Uint64() & 0x1F
	}
	if _, err := Evaluate(sp, trace, 1); err != nil {
		t.Error(err)
	}
}

func TestSpatialRejectsWideBuses(t *testing.T) {
	if _, err := NewSpatial(7); err == nil {
		t.Error("spatial coder must reject widths beyond 6")
	}
	if _, err := NewSpatial(0); err == nil {
		t.Error("spatial coder must reject width 0")
	}
}

func TestContextInvariantsHeldThroughout(t *testing.T) {
	cfg := ContextConfig{Width: 16, TableSize: 8, ShiftEntries: 4, DividePeriod: 32, Lambda: 1}
	ctx, _ := NewContext(cfg)
	enc := ctx.NewEncoder().(*contextEncoder)
	rng := stats.NewRNG(8)
	for i := 0; i < 5000; i++ {
		var v uint64
		if rng.Intn(3) == 0 {
			v = rng.Uint64() & 0xFFFF
		} else {
			v = uint64(rng.Intn(12)) * 3
		}
		enc.Encode(v)
		if err := enc.st.checkInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
}

func TestContextSortPromotesFrequentValues(t *testing.T) {
	// Feed a heavily skewed distribution; the hottest value must end up in
	// the frequency table's top slot.
	cfg := ContextConfig{Width: 16, TableSize: 6, ShiftEntries: 3, DividePeriod: 0, Lambda: 1}
	ctx, _ := NewContext(cfg)
	enc := ctx.NewEncoder().(*contextEncoder)
	rng := stats.NewRNG(12)
	for i := 0; i < 4000; i++ {
		var v uint64
		switch r := rng.Intn(10); {
		case r < 5:
			v = 0xAAAA // hottest
		case r < 8:
			v = 0xBBBB
		default:
			v = uint64(rng.Intn(50)) + 1
		}
		enc.Encode(v)
	}
	top := enc.st.slots[0]
	if !hasBit(enc.st.valid, 0) || top.key.cur != 0xAAAA {
		t.Errorf("top table entry = %+v, want value 0xAAAA", top)
	}
	if err := enc.st.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestContextCounterDivision(t *testing.T) {
	cfg := ContextConfig{Width: 16, TableSize: 4, ShiftEntries: 2, DividePeriod: 8, Lambda: 1}
	ctx, _ := NewContext(cfg)
	enc := ctx.NewEncoder().(*contextEncoder)
	// Accumulate frequency on a hot value, then watch division shrink it
	// while a different value runs.
	for i := 0; i < 100; i++ {
		enc.Encode(0x7)
	}
	countAt100 := countFor(enc, 0x7)
	if countAt100 == 0 {
		t.Fatal("hot value earned no count")
	}
	for i := 0; i < 16; i++ { // two division periods with a different value
		enc.Encode(0x9)
	}
	if got := countFor(enc, 0x7); got >= countAt100 {
		t.Errorf("counter division did not shrink hot counter: %d -> %d", countAt100, got)
	}
}

// TestContextCounterDivisionPhaseChange states the claim behind counter
// division (§5.3.3, Fig 25): when the traffic's hot set changes halfway
// through, undivided counters keep the stale phase-one values pinned in
// the table, and halving them every 1024 cycles lets the new hot set in.
// On this trace division saves more than the whole coded cost it leaves
// (off/on − 1 is 144% at the time of writing).
func TestContextCounterDivisionPhaseChange(t *testing.T) {
	rng := stats.NewRNG(33)
	trace := make([]uint64, 40000)
	phase1 := make([]uint64, 8)
	phase2 := make([]uint64, 8)
	for i := range phase1 {
		phase1[i] = rng.Uint64() & 0xFFFFFFFF
		phase2[i] = rng.Uint64() & 0xFFFFFFFF
	}
	for i := range trace {
		set := phase1
		if i >= len(trace)/2 {
			set = phase2
		}
		trace[i] = set[rng.Intn(len(set))]
	}
	cost := func(period int) float64 {
		ctx, err := NewContext(ContextConfig{Width: 32, TableSize: 8, ShiftEntries: 4, DividePeriod: period, Lambda: 1})
		if err != nil {
			t.Fatal(err)
		}
		return MustEvaluate(ctx, trace, 1).CodedCost()
	}
	off, on := cost(0), cost(1024)
	if saved := off/on - 1; saved <= 1 {
		t.Errorf("counter division saved %.1f%% of the coded cost across a phase change, want > 100%%", 100*saved)
	}
}

// countFor returns the frequency count the state holds for value v, in the
// table or the shift register.
func countFor(e *contextEncoder, v uint64) uint32 {
	for i, ent := range e.st.slots {
		if hasBit(e.st.valid, i) && ent.key.cur == v {
			return ent.count
		}
	}
	return 0
}

func TestContextValueBeatsTransitionBased(t *testing.T) {
	// Reproduce the paper's §4.4 observation: for equal hardware, the
	// value-based design removes at least as much energy as the
	// transition-based one on hot-value traffic (there are many more arcs
	// than states).
	rng := stats.NewRNG(77)
	hot := make([]uint64, 16)
	for i := range hot {
		hot[i] = rng.Uint64() & 0xFFFFFFFF
	}
	trace := make([]uint64, 20000)
	for i := range trace {
		if rng.Intn(5) == 0 {
			trace[i] = rng.Uint64() & 0xFFFFFFFF
		} else {
			trace[i] = hot[rng.Intn(len(hot))]
		}
	}
	mk := func(transition bool) Result {
		ctx, err := NewContext(ContextConfig{
			Width: 32, TableSize: 16, ShiftEntries: 8,
			DividePeriod: 4096, TransitionBased: transition, Lambda: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return MustEvaluate(ctx, trace, 1)
	}
	value := mk(false)
	transition := mk(true)
	if value.EnergyRemoved() < transition.EnergyRemoved() {
		t.Errorf("value-based removed %.3f < transition-based %.3f",
			value.EnergyRemoved(), transition.EnergyRemoved())
	}
}

func TestContextConfigValidation(t *testing.T) {
	bad := []ContextConfig{
		{Width: 16, TableSize: 0, ShiftEntries: 4},
		{Width: 16, TableSize: 4, ShiftEntries: 0},
		{Width: 16, TableSize: 4, ShiftEntries: 4, DividePeriod: -1},
	}
	for _, cfg := range bad {
		if _, err := NewContext(cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
	// Out-of-range widths panic (programming error, like bus.Mask).
	defer func() {
		if recover() == nil {
			t.Error("width 0 should panic")
		}
	}()
	NewContext(ContextConfig{Width: 0, TableSize: 4, ShiftEntries: 4})
}

func TestEvaluateDetectsDivergence(t *testing.T) {
	// A deliberately broken transcoder must be caught by Evaluate.
	b := brokenTranscoder{}
	if _, err := Evaluate(b, []uint64{1, 2, 3}, 1); err == nil {
		t.Error("Evaluate must report decoder divergence")
	}
}

type brokenTranscoder struct{}

func (brokenTranscoder) Name() string        { return "broken" }
func (brokenTranscoder) DataWidth() int      { return 8 }
func (brokenTranscoder) NewEncoder() Encoder { return &rawEncoder{width: 8} }
func (brokenTranscoder) NewDecoder() Decoder { return brokenDecoder{} }

type brokenDecoder struct{}

func (brokenDecoder) Decode(w bus.Word) uint64 { return uint64(w) + 1 }
func (brokenDecoder) Reset()                   {}

func TestResetRestoresInitialState(t *testing.T) {
	win, _ := NewWindow(16, 4, 1)
	rng := stats.NewRNG(5)
	trace := make([]uint64, 100)
	for i := range trace {
		trace[i] = rng.Uint64() & 0xFFFF
	}
	enc := win.NewEncoder()
	first := make([]bus.Word, len(trace))
	for i, v := range trace {
		first[i] = enc.Encode(v)
	}
	enc.Reset()
	for i, v := range trace {
		if got := enc.Encode(v); got != first[i] {
			t.Fatalf("after Reset, output %d differs: %#x vs %#x", i, got, first[i])
		}
	}
}

func TestEnergyRemovedSigns(t *testing.T) {
	// Window coding of pure random data may add energy (extra wires,
	// misses) — EnergyRemoved can be negative but EnergyRemaining must be
	// its complement.
	rng := stats.NewRNG(1)
	trace := make([]uint64, 3000)
	for i := range trace {
		trace[i] = rng.Uint64()
	}
	win, _ := NewWindow(32, 8, 1)
	res := MustEvaluate(win, trace, 1)
	if diff := res.EnergyRemoved() + res.EnergyRemaining() - 1; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("EnergyRemoved + EnergyRemaining != 1 (diff %v)", diff)
	}
}

func TestHotSetSavingsOrdering(t *testing.T) {
	// On hot-set traffic the dictionary coders must beat the stride coder,
	// mirroring the paper's §4.4 ranking.
	rng := stats.NewRNG(23)
	hot := make([]uint64, 6)
	for i := range hot {
		hot[i] = rng.Uint64() & 0xFFFFFFFF
	}
	trace := make([]uint64, 10000)
	for i := range trace {
		if rng.Intn(8) == 0 {
			trace[i] = rng.Uint64() & 0xFFFFFFFF
		} else {
			trace[i] = hot[rng.Intn(len(hot))]
		}
	}
	win, _ := NewWindow(32, 8, 1)
	str, _ := NewStride(32, 8, 1)
	winRes := MustEvaluate(win, trace, 1)
	strRes := MustEvaluate(str, trace, 1)
	if winRes.EnergyRemoved() <= strRes.EnergyRemoved() {
		t.Errorf("window (%.3f) should beat stride (%.3f) on hot-set traffic",
			winRes.EnergyRemoved(), strRes.EnergyRemoved())
	}
	if winRes.EnergyRemoved() < 0.3 {
		t.Errorf("window savings on hot-set traffic suspiciously low: %.3f", winRes.EnergyRemoved())
	}
}

func TestOpStatsAdd(t *testing.T) {
	a := OpStats{Cycles: 1, Shifts: 2, Swaps: 3, LastHits: 4}
	b := OpStats{Cycles: 10, Shifts: 20, Swaps: 30, LastHits: 40, RawSends: 5}
	a.Add(b)
	if a.Cycles != 11 || a.Shifts != 22 || a.Swaps != 33 || a.LastHits != 44 || a.RawSends != 5 {
		t.Errorf("Add produced %+v", a)
	}
}
