package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"buspower/internal/coding"
	"buspower/internal/workload"
)

// TestEvaluateRequestMatchesCLIPath: a served evaluation must be
// bit-identical to what the direct (CLI experiment) path computes for
// the same workload, scheme and Λ.
func TestEvaluateRequestMatchesCLIPath(t *testing.T) {
	req := EvalRequest{
		Workload: "li", Bus: "reg",
		Scheme: "window:entries=8",
		Quick:  true,
	}
	resp, err := EvaluateRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	cfg := QuickConfig()
	tr, err := busTrace("li", "reg", cfg.Run)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := coding.NewWindow(32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := coding.Evaluate(tc, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Raw.Transitions != want.Raw.Transitions() || resp.Raw.Couplings != want.Raw.Couplings() {
		t.Errorf("raw stats diverge: got %+v, want %d/%d", resp.Raw, want.Raw.Transitions(), want.Raw.Couplings())
	}
	if resp.Coded.Transitions != want.Coded.Transitions() || resp.Coded.Couplings != want.Coded.Couplings() {
		t.Errorf("coded stats diverge: got %+v, want %d/%d", resp.Coded, want.Coded.Transitions(), want.Coded.Couplings())
	}
	if resp.Ops != want.Ops {
		t.Errorf("op stats diverge: got %+v, want %+v", resp.Ops, want.Ops)
	}
	if got, want := resp.EnergyRemovedPct, 100*want.EnergyRemoved(); got != want {
		t.Errorf("energy removed %v, want %v", got, want)
	}
	if resp.Scheme != "window-8" || resp.Source != "workload:li/reg" {
		t.Errorf("labels: %q / %q", resp.Scheme, resp.Source)
	}
}

// TestEvaluateRequestMemoizes: a repeated request (including a
// resubmitted inline trace, which is content-addressed) must be answered
// from the evaluation-result memo.
func TestEvaluateRequestMemoizes(t *testing.T) {
	vals := make([]uint64, 2048)
	for i := range vals {
		vals[i] = uint64(i%97) * 0x9e3779b9
	}
	req := EvalRequest{Values: vals, Scheme: "context:table=16,sr=8"}
	first, err := EvaluateRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	before := EvalMemoStats()
	// Resubmit the same values in a fresh slice: the content address, not
	// the slice identity, must key the memo.
	again := EvalRequest{Values: append([]uint64(nil), vals...), Scheme: "context:table=16,sr=8"}
	second, err := EvaluateRequest(context.Background(), again)
	if err != nil {
		t.Fatal(err)
	}
	after := EvalMemoStats()
	if after.Misses != before.Misses {
		t.Errorf("resubmission recomputed: misses %d -> %d", before.Misses, after.Misses)
	}
	if after.Hits != before.Hits+1 {
		t.Errorf("resubmission did not hit the memo: hits %d -> %d", before.Hits, after.Hits)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("memoized response diverges:\nfirst  %+v\nsecond %+v", first, second)
	}
}

func TestEvaluateRequestHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EvaluateRequest(ctx, EvalRequest{Workload: "go", Bus: "mem", Scheme: "raw", Quick: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context did not fail the request: %v", err)
	}
}

func TestParseEvalRequestValidates(t *testing.T) {
	cases := []struct {
		json    string
		errLike string
	}{
		{`{`, "bad eval request"},
		{`{} {}`, "trailing data"},
		{`{"scheme":"raw"}`, "exactly one source"},
		{`{"workload":"li","bus":"reg","random":5,"scheme":"raw"}`, "exactly one source"},
		{`{"workload":"li","scheme":"raw"}`, "both workload and bus"},
		{`{"workload":"nope","bus":"reg","scheme":"raw"}`, "unknown benchmark"},
		{`{"workload":"li","bus":"dbus","scheme":"raw"}`, "unknown bus"},
		{`{"workload":"li","bus":"reg","scheme":"frobnicate"}`, "unknown scheme kind"},
		{`{"workload":"li","bus":"reg","scheme":"raw","verify":"never"}`, "unknown verification policy"},
		{`{"workload":"li","bus":"reg","scheme":"raw","lambda":-2}`, "finite non-negative"},
		{`{"workload":"li","bus":"reg","scheme":"raw","max_instructions":6000000}`, "exceeds cap"},
		{`{"workload":"li","bus":"reg","scheme":"raw","max_bus_values":-1}`, "outside"},
		{`{"random":-5,"scheme":"raw"}`, "outside"},
		{`{"random":9000000,"scheme":"raw"}`, "outside"},
		{`{"random":100,"quick":true,"scheme":"raw"}`, "only apply to workload"},
		{`{"values":[1,2],"max_instructions":5,"scheme":"raw"}`, "only apply to workload"},
		{`{"values":[1,2],"scheme":"raw","unknown_field":1}`, "unknown field"},
	}
	for _, c := range cases {
		if _, err := ParseEvalRequest([]byte(c.json)); err == nil {
			t.Errorf("ParseEvalRequest(%s) succeeded, want error containing %q", c.json, c.errLike)
		} else if !strings.Contains(err.Error(), c.errLike) {
			t.Errorf("ParseEvalRequest(%s) error %q does not contain %q", c.json, err, c.errLike)
		}
	}
}

// TestParseEvalRequestCanonicalizes: defaults are materialized and the
// scheme/verify spellings rewritten so the parsed form is a stable cache
// identity (encode→parse is the identity on canonical requests).
func TestParseEvalRequestCanonicalizes(t *testing.T) {
	req, err := ParseEvalRequest([]byte(`{"random":100,"scheme":" window : entries=8 ","verify":"sampled:64"}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Scheme != "window:entries=8" || req.Verify != "sampled" || req.Lambda != 1 {
		t.Fatalf("not canonicalized: %+v", req)
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseEvalRequest(data)
	if err != nil {
		t.Fatalf("canonical form did not reparse: %v", err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Errorf("canonical round-trip drifted:\n%+v\n%+v", req, back)
	}
}

// TestEvaluateRequestRandomMatchesSharedTrace: the random source serves
// the exact shared trace the experiments use.
func TestEvaluateRequestRandomMatchesSharedTrace(t *testing.T) {
	n := 4096
	resp, err := EvaluateRequest(context.Background(), EvalRequest{Random: n, Scheme: "businvert"})
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.RandomTrace(n, randomSeed)
	tc, err := coding.NewBusInvert(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := coding.Evaluate(tc, tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Coded.Transitions != want.Coded.Transitions() {
		t.Errorf("random-source transitions %d, want %d", resp.Coded.Transitions, want.Coded.Transitions())
	}
}

// TestEvaluateRequestMatchesScalarEvaluator: the request path evaluates a
// miss as a one-cell grid, so a stride request replays a stride tape.
// For one scheme of every registered kind under every verify policy,
// its response must equal the one built from a direct scalar Evaluator
// run: raw and coded meters, widths, op counts and energy.
func TestEvaluateRequestMatchesScalarEvaluator(t *testing.T) {
	schemes := map[string][]string{
		"raw":       {"raw"},
		"gray":      {"gray"},
		"spatial":   {"spatial:width=4"},
		"businvert": {"businvert"},
		"inversion": {"inversion:patterns=4,lambda=0.5"},
		"pbi":       {"pbi:groups=4"},
		"stride":    {"stride:strides=8,lambda=0.25"},
		"window":    {"window:entries=24,lambda=0.5"},
		"context": {
			"context:table=32,sr=8,divide=256,lambda=0.5",
			"context:table=8,sr=4,divide=1024,transition=true",
		},
		"optmem":    {"optmem:extra=2"},
		"vc":        {"vc:extra=2"},
		"lowweight": {"lowweight:groups=4,extra=1"},
		"dvs":       {"dvs:extra=2,vdd=80"},
	}
	// The scalar reference runs the widened 64-bit copy, so every case
	// also checks the service's 32-bit path against the 64-bit one.
	ts, err := workload.Traces("li", QuickConfig().Run)
	if err != nil {
		t.Fatal(err)
	}
	tr := ts.Reg
	for _, kind := range coding.SchemeKinds() {
		specs, ok := schemes[kind]
		if !ok {
			t.Errorf("scheme kind %q has no differential case", kind)
			continue
		}
		for _, scheme := range specs {
			for _, verify := range []string{"sampled", "off", "full"} {
				req := EvalRequest{Workload: "li", Bus: "reg", Quick: true, Scheme: scheme, Lambda: 2, Verify: verify}
				got, err := EvaluateRequest(context.Background(), req)
				if err != nil {
					t.Fatalf("%s/%s: %v", scheme, verify, err)
				}

				tc, err := coding.BuildScheme(scheme)
				if err != nil {
					t.Fatal(err)
				}
				policy, err := coding.ParseVerifyPolicy(verify)
				if err != nil {
					t.Fatal(err)
				}
				ev := coding.Evaluator{Verify: policy}
				ev.Use(tc)
				res, err := ev.Evaluate(tr, req.Lambda, coding.MeasureRawValues(tc.DataWidth(), tr))
				if err != nil {
					t.Fatalf("%s/%s scalar: %v", scheme, verify, err)
				}
				want := &EvalResponse{
					Scheme:             res.Scheme,
					ConfigKey:          coding.ConfigKey(tc),
					Source:             "workload:li/reg",
					Lambda:             req.Lambda,
					Verify:             verify,
					Raw:                busStats(res.Raw, req.Lambda),
					Coded:              busStats(res.Coded, req.Lambda),
					EnergyRemovedPct:   100 * res.EnergyRemoved(),
					EnergyRemainingPct: 100 * res.EnergyRemaining(),
					Ops:                res.Ops,
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: request path diverges from the scalar evaluator:\ngot  %+v\nwant %+v", scheme, verify, got, want)
				}
			}
		}
	}
}

// TestEvaluateRequestSharesNarrowRawMeter: the raw meter of a workload
// bus is memoized at every width, so two schemes at width 16 on one bus
// meter it once, and the shared meter is the bus masked to 16 bits.
func TestEvaluateRequestSharesNarrowRawMeter(t *testing.T) {
	ClearEvalMemo()
	t.Cleanup(ClearEvalMemo)
	tr, err := busTrace("li", "reg", QuickConfig().Run)
	if err != nil {
		t.Fatal(err)
	}
	want := busStats(coding.MeasureRaw(16, tr), evalLambda)
	for i, scheme := range []string{"businvert:width=16", "window:entries=8,width=16"} {
		resp, err := EvaluateRequest(context.Background(), EvalRequest{Workload: "li", Bus: "reg", Quick: true, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Raw != want {
			t.Errorf("%s: raw %+v, want %+v", scheme, resp.Raw, want)
		}
		if st := RawMeterMemoStats(); st.Misses != 1 || st.Hits != uint64(i) {
			t.Errorf("after %s: raw meters %d hits / %d misses, want %d / 1", scheme, st.Hits, st.Misses, i)
		}
	}
}
