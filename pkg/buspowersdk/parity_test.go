package buspowersdk

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"buspower/internal/experiments"
)

// The SDK mirrors the server's internal wire types field-for-field.
// Each parity test marshals a fully populated internal value, decodes
// it into the mirror with unknown fields disallowed (a field the SDK
// dropped fails here), and re-marshals (a field the SDK added, renamed
// or re-tagged fails the byte comparison).

func roundTripParity(t *testing.T, internal interface{}, mirror interface{}) {
	t.Helper()
	data, err := json.Marshal(internal)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(mirror); err != nil {
		t.Fatalf("SDK mirror rejects server payload: %v\npayload: %s", err, data)
	}
	back, err := json.Marshal(mirror)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("SDK mirror re-marshals differently:\nserver: %s\nsdk:    %s", data, back)
	}
}

func internalEvalRequest() experiments.EvalRequest {
	return experiments.EvalRequest{
		Workload:        "li",
		Bus:             "reg",
		Random:          25000,
		Values:          []uint64{1, 2, 3},
		Scheme:          "window:entries=8",
		Lambda:          2.5,
		Verify:          "sampled:512",
		Quick:           true,
		MaxInstructions: 1_000_000,
		MaxBusValues:    120_000,
	}
}

func TestEvalRequestParity(t *testing.T) {
	roundTripParity(t, internalEvalRequest(), &EvalRequest{})
}

func TestEvalResponseParity(t *testing.T) {
	req, err := experiments.ParseEvalRequest([]byte(`{"values":[1,2,3,7,1,2],"scheme":"window:entries=8","lambda":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := experiments.EvaluateRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	roundTripParity(t, resp, &EvalResponse{})
}
