package buspowersdk

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"buspower/internal/experiments"
	"buspower/internal/serve"
)

// The SDK against the real server, end to end: every public endpoint,
// with responses checked against the engine's direct answers.

func startRealServer(t *testing.T) *Client {
	t.Helper()
	s := serve.NewServer(serve.Options{Workers: 2, QueueDepth: 16, RequestTimeout: 30 * time.Second})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	c, err := New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSDKEvalAgainstEngine(t *testing.T) {
	c := startRealServer(t)
	got, err := c.Eval(context.Background(), EvalRequest{
		Values: []uint64{1, 2, 3, 4, 5, 6, 7, 8, 4, 4, 4, 1, 2, 3},
		Scheme: "window:entries=8",
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := experiments.ParseEvalRequest([]byte(`{"values":[1,2,3,4,5,6,7,8,4,4,4,1,2,3],"scheme":"window:entries=8"}`))
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.EvaluateRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Compare through JSON so the SDK mirror and the internal type meet
	// on the wire shape they share.
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("SDK response diverges from engine:\nsdk:    %s\nengine: %s", gotJSON, wantJSON)
	}

	// EvalRaw returns the server's payload verbatim: the engine's
	// marshalled response plus the trailing newline framing.
	raw, err := c.EvalRaw(context.Background(), []byte(`{"values":[1,2,3,4,5,6,7,8,4,4,4,1,2,3],"scheme":"window:entries=8"}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(wantJSON)+"\n" {
		t.Fatalf("EvalRaw diverges from engine bytes:\nraw:    %q\nengine: %q", raw, wantJSON)
	}
}

func TestSDKDiscoveryAndHealth(t *testing.T) {
	c := startRealServer(t)
	ctx := context.Background()

	schemes, err := c.Schemes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(schemes.Schemes) < 5 || schemes.Grammar == "" {
		t.Fatalf("schemes = %+v", schemes)
	}

	wls, err := c.Workloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(wls) == 0 || wls[0].Name == "" {
		t.Fatalf("workloads = %+v", wls)
	}

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = %+v, err %v", h, err)
	}

	metrics, err := c.Metrics(ctx)
	if err != nil || !strings.Contains(metrics, "buspower_requests_total") {
		t.Fatalf("metrics err %v", err)
	}
}
