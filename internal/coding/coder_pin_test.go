package coding

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"
)

// pinTraces returns the two 32-bit traces the coder pins run on:
// dictionary-heavy traffic (a skewed hot set with repeats, strided runs
// and cold misses) and uniformly random words, drawn from splitmix so
// they are independent of every generator in the program.
func pinTraces() map[string][]uint32 {
	next := splitmix(0x5EED0032)
	const n = 12000
	hot := make([]uint32, 48)
	for i := range hot {
		hot[i] = uint32(next())
	}
	dict := make([]uint32, n)
	var v uint32
	for i := range dict {
		switch r := next() % 16; {
		case r < 2: // repeat
		case r < 4: // strided run
			v += 4
		case r < 5: // cold miss
			v = uint32(next())
		default: // hot value, skewed towards the low indices
			v = hot[min(next()%48, next()%48)]
		}
		dict[i] = v
	}
	random := make([]uint32, n)
	for i := range random {
		random[i] = uint32(next())
	}
	return map[string][]uint32{"dict": dict, "random": random}
}

// pinCells returns the pinned coder configurations, keyed by a label
// that names every parameter.
func pinCells(t *testing.T) map[string]Transcoder {
	t.Helper()
	cells := map[string]Transcoder{}
	add := func(label string, tc Transcoder, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cells[label] = tc
	}
	for _, n := range []int{1, 8, 64, 300} {
		tc, err := NewWindow(32, n, 1)
		add(fmt.Sprintf("window-%d", n), tc, err)
	}
	ctx := func(table, sr, divide int, transition bool) {
		tc, err := NewContext(ContextConfig{Width: 32, TableSize: table, ShiftEntries: sr,
			DividePeriod: divide, TransitionBased: transition, Lambda: 1})
		add(fmt.Sprintf("%s-d%d", tc.Name(), divide), tc, err)
	}
	for _, transition := range []bool{false, true} {
		for _, table := range []int{4, 16, 128} {
			for _, sr := range []int{2, 8, 16} {
				for _, divide := range []int{0, 4096} {
					ctx(table, sr, divide, transition)
				}
			}
		}
		ctx(300, 8, 4096, transition) // above rowsMaxSlots: the hash index
	}
	for _, k := range []int{1, 8, 30, tapeMaxStrides + 1} {
		tc, err := NewStride(32, k, 1)
		add(fmt.Sprintf("stride-%d", k), tc, err)
	}
	for _, n := range []int{2, 4, 8} {
		pats, err := DefaultInversionPatterns(32, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []float64{0, 0.5, 1} {
			tc, err := NewInversion(32, pats, l)
			add(tc.Name(), tc, err)
		}
	}
	return cells
}

// pinDigest hashes everything a coder produces on one trace: the coded
// word of every per-value Encode and the encoder's OpStats after them,
// then, under VerifyFull and sampled verification, the coded meter and
// OpStats of a one-cell EvaluateGrid on the 32-bit trace (the stride
// tape where it applies, the widening block elsewhere) and of an
// Evaluator run on the same values as 64-bit words.
func pinDigest(t *testing.T, h hash.Hash, tc Transcoder, trace []uint32) {
	t.Helper()
	enc := tc.NewEncoder()
	var buf [8]byte
	for _, v := range trace {
		binary.LittleEndian.PutUint64(buf[:], uint64(enc.Encode(uint64(v))))
		h.Write(buf[:])
	}
	fmt.Fprintf(h, "%+v\n", enc.(OpReporter).Ops())
	wide := make([]uint64, len(trace))
	for i, v := range trace {
		wide[i] = uint64(v)
	}
	for _, policy := range []VerifyPolicy{VerifyFull, VerifySampled(0)} {
		res, err := EvaluateGrid([]GridCell{{T: tc, Lambda: 1}}, trace, nil, policy, GridOptions{})
		if err != nil {
			t.Fatalf("%s grid %v: %v", tc.Name(), policy, err)
		}
		ev := Evaluator{Verify: policy}
		ev.Use(tc)
		single, err := ev.Evaluate(wide, 1, nil)
		if err != nil {
			t.Fatalf("%s evaluate %v: %v", tc.Name(), policy, err)
		}
		for _, r := range []Result{res[0], single} {
			m := r.Coded
			fmt.Fprintf(h, "%s %d %d %d %d %#x %+v\n", policy, r.CodedWidth, m.Cycles(), m.Transitions(), m.Couplings(), m.State(), r.Ops)
		}
	}
}

// coderPins holds, per pinned cell, the SHA-256 over both pin traces of
// what pinDigest hashes. The values were recorded from the coders as
// they stood before Encode and the bulk loops shared one body, and any
// change to the coded streams or op counts moves them.
var coderPins = map[string]string{
	"context-transition-t128-s16-d0":    "19bc4333546809d478e539168cdbaa1e9a7081eea4b0ee325e81365804cfcd31",
	"context-transition-t128-s16-d4096": "b58f9718b6cb48aad40172472abb534b239ce50d379b7bf151d8f4ded3efef07",
	"context-transition-t128-s2-d0":     "2f8987cf10d9841e8704741dfde77358b5e7d9d6e980e8e3830762aa0da72e7d",
	"context-transition-t128-s2-d4096":  "628added5b66e78c3b87e2327fd48b2ec3952f5d4b1bbf19f9515482a36d8620",
	"context-transition-t128-s8-d0":     "ccedc1361e4f353c27afe96f8553116fe0cd2416f6f813fc9d2aed46f7b4dce3",
	"context-transition-t128-s8-d4096":  "04c386ac3fedbd89fc6e00767d83d4e45874d716cd4b2fcd415de3a8b88c4649",
	"context-transition-t16-s16-d0":     "91b015f628d85927b83f34ea7091ec691206c6b075d047d291b26158eeaa507d",
	"context-transition-t16-s16-d4096":  "d190fcac768ebd2dc5c7e746b9379f3b8e2b6945e002ab56798a401118c2eaea",
	"context-transition-t16-s2-d0":      "9178ac35f7df99a456e68d7d911698e092a6cd5c36fc5272017f68f84048e32a",
	"context-transition-t16-s2-d4096":   "e5c2f45fb4b127d861e487a9eb565fb4cb1df96b9796fad49aa0af5b5ffb75fd",
	"context-transition-t16-s8-d0":      "0571ba87c912426e6d322c3fa509a7740a0639e0a5dd769f7a96fe2b1c2bcda6",
	"context-transition-t16-s8-d4096":   "ebcda688c6ddc72a7597394feca021b17bd1f6b05b28f2545e41af01152fe541",
	"context-transition-t300-s8-d4096":  "0767cb4fe6516427112c68f2d50ca962d44eec040da01fec06aa3ec2174f318b",
	"context-transition-t4-s16-d0":      "bccb94de5fa89efa6b07c58a14494275834e5e9ec05650e25d612aa35e964cde",
	"context-transition-t4-s16-d4096":   "6979434d3b9469e96a0ebb1baa9d475d72857c8068cf16827dc2c716cc27115b",
	"context-transition-t4-s2-d0":       "601d3aa6d38088db0540e101fb65228b19ba3a059cb16aafb2b931118f95b637",
	"context-transition-t4-s2-d4096":    "1d3ce370c34c74dc61547e901699ae146ddf6c6d7e38192f554400ba17a82684",
	"context-transition-t4-s8-d0":       "e794caeeb7cdcda47ce5736bf35090e0d3477567ca3e56111796fafc0a0a6966",
	"context-transition-t4-s8-d4096":    "c9b118941bf8c716f648202c4f3269018b5ea27d8bfbde43301d90361d13a5dd",
	"context-value-t128-s16-d0":         "a2c056ca3ad9c43d563d9975138d84f2e07c14b78b2bbadb068d1158eed6f9d0",
	"context-value-t128-s16-d4096":      "af09e07cb45879e9c58eeec34b24fd4f6fec95f23f1cdb44e3875d6e9187ef25",
	"context-value-t128-s2-d0":          "7b64ba30d0cf0ad5cef6366bf55fccc2b8f22fe90038a7770e979ec5c2da3561",
	"context-value-t128-s2-d4096":       "48f8eb4efe86ca2db82262c95b3d1703bbfc9eb0a03b2901a2ce29d09eed2871",
	"context-value-t128-s8-d0":          "13d31dfcb1264a89ce3b34d21289292b441ba6b163ca066c80a11cf19e61f725",
	"context-value-t128-s8-d4096":       "9a6272f07bba72d4f9ba24cbf5520023a8a40095c19a71ec4f03f57494cf9058",
	"context-value-t16-s16-d0":          "bcbac7765d31c6fe42876bb730205bf89a5646138c7393a55bc9a3c1d7cc9b88",
	"context-value-t16-s16-d4096":       "77f077d803adaa15dc108d70ca8291058e19c599587b5521879425a2e9ba6c2a",
	"context-value-t16-s2-d0":           "a0343cca8fdcfa30c392c5b75e40eee4c4336144b3cf7fafa944dac9c10e6d98",
	"context-value-t16-s2-d4096":        "db356ce4cbab6bb099ff6cd585d583279abfc658c534882a2ae3b073c55975b4",
	"context-value-t16-s8-d0":           "b3bab782fb1a19ec5b3598981d37122097121b5969c2b4cf487b992c5abe9a53",
	"context-value-t16-s8-d4096":        "1b76f3f6a5e73c06c348469f51096022fcb1a662a76b026e89a35cf7c0e833d7",
	"context-value-t300-s8-d4096":       "f6111ddf36603aa5b2e4389740562036e5ab5077f5db630e9ee5873f1ee16690",
	"context-value-t4-s16-d0":           "e1b79289f79871fdf74c5b10ba212da4d6fef035fce3222ed6af8364c266681c",
	"context-value-t4-s16-d4096":        "d8c74b34ed61b263625c11df840b5c280f2a7a7e89371c4d3e14244927b1e9a3",
	"context-value-t4-s2-d0":            "440ccae435f72cf8cf966be0ce2585d8ff9d6ec9d85a7d0e0ba67f9474d3c7e4",
	"context-value-t4-s2-d4096":         "d12165dec1eb6c97e89f03217231629e82f272bd50997ac8c198a77e630c6585",
	"context-value-t4-s8-d0":            "c58cbd1d1574ff6df0f739af792099150d7f9e5e4f00d324ada57d54c3156917",
	"context-value-t4-s8-d4096":         "30e83732892b1b84cd978393bd38c0cffbc4cdd485d5082f0a5024fdc293d1bc",
	"inversion-2pat-l0":                 "cec44a5b8f96b0124f80a97ad34e44029b17718f9fe9782d46187e6d33d28d5d",
	"inversion-2pat-l0.5":               "98e191c947814fa9df973f843876081d22cec065b2f1b0c6137a0c30ac185ac0",
	"inversion-2pat-l1":                 "1b88bb4a186fa32642a45c991e683db1ec4728e20dbfe071341293cc25622239",
	"inversion-4pat-l0":                 "b98dfb8e9b8a758d37945801cdce8cef2c8b814db766efce79065bc6fd3b4129",
	"inversion-4pat-l0.5":               "0c01aaf987c81685ca9033e9d7c1622e638ef3cd5f6cabcd871d26cf15cdd460",
	"inversion-4pat-l1":                 "2ed489d6a5eb678da2ad1712bb390ee6605d57794d99a8773c9b2c19c8e9698f",
	"inversion-8pat-l0":                 "a8921e5b60de641be53768eea4ef6dd138f83ddcc6792cc4f040551c93bccef9",
	"inversion-8pat-l0.5":               "2b76de3931a06b3a87a930f736f6f0975186baac69aab0ca8f5bf527deecd818",
	"inversion-8pat-l1":                 "b1dd6f99c4a8dfc86aa3185405169aa20614e6a7d02e5a996b43735d99c77ee5",
	"stride-1":                          "ecf93b79b0a6c9cce84e2a9c623b9d4b4862929c30b1fc7193809f9f7cd1f11b",
	"stride-251":                        "a219d505ba44495153b78972b27760e8c62db2a6dbb0539a920e9e699dc63853",
	"stride-30":                         "fda98033bd7e04848ea0112059adcd4139c5c08251717619c8511b2a63b6b6c6",
	"stride-8":                          "11c797f6ff86f530a5404b9be3a06d7b665c36c0fd8f6917e1f20bd2f5671090",
	"window-1":                          "650f45f4766c450e0f3b604177beef873981acdb166d269bc129bfc141ad27b0",
	"window-300":                        "4228ae8dbd60bdee7c2f1ef7bfebb5605bae746394d64bf2b56bbc029bf2717d",
	"window-64":                         "17686a96ae7961abef6f106a7967c7edad58c56491267d450cd893c7b498f06c",
	"window-8":                          "d4136512e6701ed227b9ac455a40a4b9f173de32c3ee0321dec9282b1bc59911",
}

// TestCoderPins checks every pinned coder configuration against its
// recorded digest: window, both Context flavours (on both sides of the
// row-walk/hash-index crossover), stride on the tape and scalar paths,
// and generalized inversion at integral and fractional Λ.
func TestCoderPins(t *testing.T) {
	traces := pinTraces()
	for label, tc := range pinCells(t) {
		h := sha256.New()
		for _, name := range []string{"dict", "random"} {
			pinDigest(t, h, tc, traces[name])
		}
		got := fmt.Sprintf("%x", h.Sum(nil))
		if want, ok := coderPins[label]; !ok || got != want {
			t.Errorf("%s: digest %s, want %s\n\t%q: %q,", label, got, want, label, got)
		}
	}
	if n := len(pinCells(t)); n != len(coderPins) {
		t.Errorf("%d pinned cells, %d recorded digests", n, len(coderPins))
	}
}
