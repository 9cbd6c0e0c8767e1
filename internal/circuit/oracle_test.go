package circuit_test

import (
	"fmt"
	"testing"

	"buspower/internal/circuit"
	"buspower/internal/coding"
	"buspower/internal/experiments"
	"buspower/internal/workload"
)

// camWindow replays the Window coder's policy (§4.3) on the
// selective-precharge CAM model: every cycle probes the CAM; a repeat of
// the last value sends code 0, a hit sends a codeword, and a miss sends
// the value raw and overwrites the oldest entry at the ring head. The
// ring powers up holding n zeros, which the decoder mirrors.
func camWindow(n int, trace []uint64) (*circuit.CAM, coding.OpStats) {
	cam := circuit.NewCAM(n, 32, 8)
	for i := 0; i < n; i++ {
		cam.Write(i, 0)
	}
	var ops coding.OpStats
	head, last := 0, uint64(0)
	for _, v := range trace {
		hit := cam.Match(v) >= 0
		switch {
		case v == last:
			ops.LastHits++
		case hit:
			ops.CodeSends++
		default:
			ops.RawSends++
			ops.Shifts++
			cam.Write(head, v)
			head = (head + 1) % n
		}
		last = v
	}
	ops.Cycles = cam.Probes
	return cam, ops
}

// TestCAMMatchesWindowOps is an oracle for the Window coder's op counts:
// a CAM model that shares no code with the coder, driven with the probe
// and insert sequence of the Window policy, must charge exactly 8 partial
// comparator bits per PartialMatch and 24 full ones per FullMatch, and
// must count the coder's cycles, last-value hits, code sends, raw sends
// and shifts.
// The sizes straddle rowsMaxSlots (256), so both the row walk and the
// hash index of the coder's dictionary are checked; VerifyFull runs the
// per-cycle Encode and VerifySampled the bulk encodeStream.
func TestCAMMatchesWindowOps(t *testing.T) {
	cfg := experiments.QuickConfig().Run
	policies := []coding.VerifyPolicy{coding.VerifyFull, coding.VerifySampled(0)}
	for _, name := range []string{"gcc", "li", "swim", "compress"} {
		tr, err := workload.Resident(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, stream := range []struct {
			bus  string
			vals []uint32
		}{{"reg", tr.Reg}, {"mem", tr.Mem}} {
			trace := make([]uint64, len(stream.vals))
			for i, v := range stream.vals {
				trace[i] = uint64(v)
			}
			for _, n := range []int{1, 8, 16, 256, 257, 1024} {
				cam, want := camWindow(n, trace)
				win, err := coding.NewWindow(32, n, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, verify := range policies {
					ev := coding.Evaluator{Verify: verify}
					ev.Use(win)
					res, err := ev.Evaluate(trace, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					got := res.Ops
					where := fmt.Sprintf("%s/%s window-%d, verify %s", name, stream.bus, n, verify)
					if got.PartialMatches*8 != cam.PartialCharges {
						t.Errorf("%s: PartialMatches %d ×8 != CAM partial charges %d", where, got.PartialMatches, cam.PartialCharges)
					}
					if got.FullMatches*24 != cam.FullCharges {
						t.Errorf("%s: FullMatches %d ×24 != CAM full charges %d", where, got.FullMatches, cam.FullCharges)
					}
					if got.Cycles != want.Cycles || got.LastHits != want.LastHits ||
						got.CodeSends != want.CodeSends || got.RawSends != want.RawSends ||
						got.Shifts != want.Shifts {
						t.Errorf("%s: coder ops %+v, CAM-driven policy counts %+v", where, got, want)
					}
				}
			}
		}
	}
}
