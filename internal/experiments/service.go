package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"buspower/internal/bus"
	"buspower/internal/coding"
	"buspower/internal/workload"
)

// This file is the request-shaped entry point the serving layer calls:
// one EvalRequest in, one EvalResponse out, computed through the same
// memoized machinery the experiment runners use (trace cache, shared
// raw-bus meters, the single-flight evaluation-result memo), so a
// repeated request is near-free and a served answer is bit-identical to
// what the CLI path computes for the same inputs.

// Request-side resource caps. The entry point fronts a network API, so
// every axis that scales work or memory is bounded here regardless of
// what transport-level limits the server applies.
const (
	// MaxRequestInstructions caps the per-request simulated instruction
	// count for named-workload sources.
	MaxRequestInstructions = 5_000_000
	// MaxRequestValues caps the captured/submitted/synthesized trace
	// length (values are 8 bytes each, so this is a 32 MiB ceiling).
	MaxRequestValues = 4 << 20
)

// EvalRequest describes one transcoder evaluation over one value stream.
// Exactly one source must be set: a named SPEC-analog workload (Workload
// + Bus), a uniformly random stream (Random values, the paper's
// traditional baseline), or an inline submitted trace (Values).
type EvalRequest struct {
	// Workload names a registered benchmark (see workload.Names); Bus
	// selects its captured stream: "reg", "mem" or "addr".
	Workload string `json:"workload,omitempty"`
	Bus      string `json:"bus,omitempty"`
	// Random asks for the shared uniformly random trace of this length.
	Random int `json:"random,omitempty"`
	// Values is an inline submitted trace (each value is masked to the
	// scheme's data width on evaluation).
	Values []uint64 `json:"values,omitempty"`

	// Scheme is the transcoder configuration in coding.SchemeSpec grammar,
	// e.g. "window:entries=8" or "context:table=64,sr=8". ParseEvalRequest
	// rewrites it to canonical form.
	Scheme string `json:"scheme"`
	// Lambda is the coupling ratio Λ the meters are read at (default 1).
	Lambda float64 `json:"lambda,omitempty"`
	// Verify is the decoder round-trip policy: "full", "sampled[:N]" or
	// "off" (default "sampled"; results are bit-identical under all).
	Verify string `json:"verify,omitempty"`

	// Quick selects the reduced simulation bounds (QuickConfig) as the
	// base for named-workload sources; MaxInstructions/MaxBusValues
	// override individual bounds. All are ignored for random and inline
	// sources.
	Quick           bool   `json:"quick,omitempty"`
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	MaxBusValues    int    `json:"max_bus_values,omitempty"`
}

// BusStats summarizes one bus's metered activity.
type BusStats struct {
	// Width is the bus width in wires.
	Width int `json:"width"`
	// Cycles is the number of recorded bus states (the power-up state
	// included).
	Cycles uint64 `json:"cycles"`
	// Transitions is Σλ_n, the total wire self-transitions (eq. 2).
	Transitions uint64 `json:"transitions"`
	// Couplings is Σψ_n, the total adjacent-pair coupling events (eq. 3).
	Couplings uint64 `json:"couplings"`
	// Cost is the Λ-weighted activity: Transitions + Λ·Couplings.
	Cost float64 `json:"cost"`
	// CostPerCycle is Cost divided by the switching cycles.
	CostPerCycle float64 `json:"cost_per_cycle"`
}

func busStats(m *bus.Meter, lambda float64) BusStats {
	return BusStats{
		Width:        m.Width(),
		Cycles:       m.Cycles(),
		Transitions:  m.Transitions(),
		Couplings:    m.Couplings(),
		Cost:         m.Cost(lambda),
		CostPerCycle: m.CostPerCycle(lambda),
	}
}

// EvalResponse is the result of one EvaluateRequest call.
type EvalResponse struct {
	// Scheme is the transcoder's name; ConfigKey its full canonical
	// configuration (the memo identity).
	Scheme    string `json:"scheme"`
	ConfigKey string `json:"config_key"`
	// Source identifies the evaluated stream, e.g. "workload:li/reg",
	// "random:25000" or "inline:3f51…/w32".
	Source string `json:"source"`
	// Lambda is the coupling ratio the costs below are weighted with.
	Lambda float64 `json:"lambda"`
	// Verify is the canonical verification policy that was applied.
	Verify string `json:"verify"`
	// Raw and Coded are the un-encoded and coded buses' activity.
	Raw   BusStats `json:"raw"`
	Coded BusStats `json:"coded"`
	// EnergyRemovedPct is the paper's normalized energy removed, in
	// percent (negative when the coding added activity);
	// EnergyRemainingPct is its complement (CodedCost/RawCost·100).
	EnergyRemovedPct   float64 `json:"energy_removed_pct"`
	EnergyRemainingPct float64 `json:"energy_remaining_pct"`
	// Ops counts the encoder's §5 hardware operations, when reported.
	Ops coding.OpStats `json:"ops"`
}

// ParseEvalRequest decodes, validates and canonicalizes a JSON-encoded
// EvalRequest. Unknown fields are rejected. On success the returned
// request is in canonical form: re-encoding it with encoding/json and
// parsing that yields an identical request (the property
// FuzzParseEvalRequest proves), so canonical requests are usable as
// cache identities.
func ParseEvalRequest(data []byte) (EvalRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req EvalRequest
	if err := dec.Decode(&req); err != nil {
		return EvalRequest{}, fmt.Errorf("experiments: bad eval request: %w", err)
	}
	// Exactly one JSON value, nothing trailing.
	if dec.More() {
		return EvalRequest{}, fmt.Errorf("experiments: bad eval request: trailing data after JSON object")
	}
	if err := req.normalize(); err != nil {
		return EvalRequest{}, err
	}
	return req, nil
}

// normalize validates the request in place and rewrites Scheme and
// Verify to their canonical spellings.
func (r *EvalRequest) normalize() error {
	sources := 0
	if r.Workload != "" || r.Bus != "" {
		sources++
	}
	if r.Random != 0 {
		sources++
	}
	if len(r.Values) != 0 {
		sources++
	}
	if sources != 1 {
		return fmt.Errorf("experiments: eval request needs exactly one source (workload+bus, random, or values), got %d", sources)
	}
	switch {
	case r.Workload != "" || r.Bus != "":
		if r.Workload == "" || r.Bus == "" {
			return fmt.Errorf("experiments: workload source needs both workload and bus")
		}
		if _, err := workload.ByName(r.Workload); err != nil {
			return err
		}
		switch r.Bus {
		case "reg", "mem", "addr":
		default:
			return fmt.Errorf("experiments: unknown bus %q (want reg, mem or addr)", r.Bus)
		}
		if r.MaxInstructions > MaxRequestInstructions {
			return fmt.Errorf("experiments: max_instructions %d exceeds cap %d", r.MaxInstructions, MaxRequestInstructions)
		}
		if r.MaxBusValues < 0 || r.MaxBusValues > MaxRequestValues {
			return fmt.Errorf("experiments: max_bus_values %d outside [0, %d]", r.MaxBusValues, MaxRequestValues)
		}
	case r.Random != 0:
		if r.Random < 0 || r.Random > MaxRequestValues {
			return fmt.Errorf("experiments: random length %d outside [1, %d]", r.Random, MaxRequestValues)
		}
	default:
		if len(r.Values) > MaxRequestValues {
			return fmt.Errorf("experiments: %d submitted values exceed cap %d", len(r.Values), MaxRequestValues)
		}
	}
	if r.Random != 0 || len(r.Values) != 0 {
		// Simulation bounds only apply to workload sources; forbid them
		// elsewhere so a canonical request has no dead fields.
		if r.Quick || r.MaxInstructions != 0 || r.MaxBusValues != 0 {
			return fmt.Errorf("experiments: quick/max_instructions/max_bus_values only apply to workload sources")
		}
	}
	if math.IsNaN(r.Lambda) || math.IsInf(r.Lambda, 0) || r.Lambda < 0 {
		return fmt.Errorf("experiments: lambda %v is not a finite non-negative number", r.Lambda)
	}
	if r.Lambda == 0 {
		r.Lambda = evalLambda
	}
	spec, err := coding.ParseSchemeSpec(r.Scheme)
	if err != nil {
		return err
	}
	r.Scheme = spec.String()
	if r.Verify == "" {
		r.Verify = "sampled"
	}
	policy, err := coding.ParseVerifyPolicy(r.Verify)
	if err != nil {
		return err
	}
	r.Verify = policy.String()
	// "sampled:64" is the default period's canonical String form; keep the
	// shorter spelling stable under re-parsing.
	if r.Verify == coding.VerifySampled(0).String() {
		r.Verify = "sampled"
	}
	return nil
}

// runConfig resolves the simulation bounds for a workload source.
func (r *EvalRequest) runConfig() workload.RunConfig {
	base := DefaultConfig()
	if r.Quick {
		base = QuickConfig()
	}
	run := base.Run
	if r.MaxInstructions > 0 {
		run.MaxInstructions = r.MaxInstructions
	}
	if r.MaxBusValues > 0 {
		run.MaxBusValues = r.MaxBusValues
	}
	return run
}

// inlineSourcePrefix starts the trace identity of an inline submitted
// trace.
const inlineSourcePrefix = "inline:"

// sourceID derives the request's memo trace identity and display name.
func (r *EvalRequest) sourceID(width int) (traceID, string) {
	switch {
	case r.Workload != "":
		id := traceID{source: r.Workload, bus: r.Bus, run: r.runConfig()}
		return id, "workload:" + r.Workload + "/" + r.Bus
	case r.Random != 0:
		return randomTraceID(r.Random), "random:" + strconv.Itoa(r.Random)
	default:
		// Inline traces are content-addressed so a resubmitted trace hits
		// the eval memo; the name also reports the data width the values
		// are masked to.
		h := sha256.New()
		var b [8]byte
		for _, v := range r.Values {
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
			h.Write(b[:])
		}
		sum := hex.EncodeToString(h.Sum(nil)[:12])
		name := fmt.Sprintf("%s%s/w%d", inlineSourcePrefix, sum, width)
		return traceID{source: name, n: len(r.Values)}, name
	}
}

// EvaluateRequest answers one evaluation request through the shared
// memos: the trace comes from traceID.input (workload and random
// sources) or the request itself (inline values), the raw-bus meter and
// the whole evaluation Result are memoized single-flight, and concurrent
// identical requests coalesce into one computation. ctx is checked
// between the trace-fetch and evaluation stages; requests already
// answerable from the memo never fetch a trace at all.
//
// The request must be in canonical form (as ParseEvalRequest returns);
// EvaluateRequest normalizes defensively and rejects invalid requests.
func EvaluateRequest(ctx context.Context, req EvalRequest) (*EvalResponse, error) {
	if err := req.normalize(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	spec, err := coding.ParseSchemeSpec(req.Scheme)
	if err != nil {
		return nil, err
	}
	tc, err := spec.Build()
	if err != nil {
		return nil, err
	}
	policy, err := coding.ParseVerifyPolicy(req.Verify)
	if err != nil {
		return nil, err
	}
	id, sourceName := req.sourceID(tc.DataWidth())
	cfg := Config{Verify: policy}
	if req.Workload != "" {
		cfg.Run = req.runConfig()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	width := tc.DataWidth()
	var res coding.Result
	if len(req.Values) != 0 {
		// Inline values stay 64-bit: scheme widths reach 62.
		res, err = evalResultKeyed(tc, id, req.Lambda, cfg, func() ([]uint64, *bus.Meter, error) {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			raw, err := rawMeterMemo.Do(derivedKey{trace: id, width: width}, func() (*bus.Meter, error) {
				return coding.MeasureRawValues(width, req.Values), nil
			})
			return req.Values, raw, err
		})
	} else {
		res, err = evalResultKeyed(tc, id, req.Lambda, cfg, func() ([]uint32, *bus.Meter, error) {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			return id.input(width)
		})
	}
	if err != nil {
		return nil, err
	}
	return &EvalResponse{
		Scheme:             res.Scheme,
		ConfigKey:          coding.ConfigKey(tc),
		Source:             sourceName,
		Lambda:             req.Lambda,
		Verify:             req.Verify,
		Raw:                busStats(res.Raw, req.Lambda),
		Coded:              busStats(res.Coded, req.Lambda),
		EnergyRemovedPct:   100 * res.EnergyRemoved(),
		EnergyRemainingPct: 100 * res.EnergyRemaining(),
		Ops:                res.Ops,
	}, nil
}
