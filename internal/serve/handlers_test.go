package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"buspower/internal/coding"
	"buspower/internal/experiments"
	"buspower/internal/workload"
)

func testServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 8
	}
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	return NewServer(opts)
}

func postEval(h http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// evalBody builds a small inline-trace request.
func evalBody(scheme string) string {
	return fmt.Sprintf(`{"values":[1,2,3,4,5,6,7,8,4,4,4,1,2,3],"scheme":%q}`, scheme)
}

func TestEvalEndpointTable(t *testing.T) {
	srv := testServer(t, Options{RequestTimeout: 10 * time.Second})
	h := srv.Handler()
	cases := []struct {
		name     string
		method   string
		body     string
		wantCode int
		wantIn   string // substring of the response body
	}{
		{"happy inline", http.MethodPost, evalBody("window:entries=8"), http.StatusOK, `"scheme":"window-8"`},
		{"happy workload", http.MethodPost, `{"workload":"li","bus":"reg","quick":true,"scheme":"businvert"}`, http.StatusOK, `"source":"workload:li/reg"`},
		{"happy random", http.MethodPost, `{"random":2000,"scheme":"stride:strides=4","lambda":2}`, http.StatusOK, `"source":"random:2000"`},
		{"happy optmem", http.MethodPost, evalBody("optmem:extra=2"), http.StatusOK, `"scheme":"optmem-32+2"`},
		{"happy vc", http.MethodPost, evalBody("vc"), http.StatusOK, `"scheme":"vc-32+2"`},
		{"happy lowweight", http.MethodPost, evalBody("lowweight:groups=4,extra=1"), http.StatusOK, `"scheme":"lowweight-32g4+1"`},
		{"happy dvs", http.MethodPost, evalBody("dvs:vdd=70"), http.StatusOK, `"scheme":"dvs-32+2"`},
		{"bad optmem extra", http.MethodPost, evalBody("optmem:extra=9"), http.StatusBadRequest, "outside"},
		{"bad dvs rail", http.MethodPost, evalBody("dvs:vdd=40"), http.StatusBadRequest, "outside"},
		{"unbuildable optmem width", http.MethodPost, evalBody("optmem:extra=2,width=61"), http.StatusBadRequest, "62-wire bus limit"},
		{"malformed JSON", http.MethodPost, `{"values":[1,2`, http.StatusBadRequest, "bad eval request"},
		{"not JSON", http.MethodPost, `it's traces all the way down`, http.StatusBadRequest, "bad eval request"},
		{"trailing garbage", http.MethodPost, evalBody("raw") + `{"again":true}`, http.StatusBadRequest, "trailing data"},
		{"unknown field", http.MethodPost, `{"values":[1],"scheme":"raw","turbo":9}`, http.StatusBadRequest, "unknown field"},
		{"no source", http.MethodPost, `{"scheme":"raw"}`, http.StatusBadRequest, "exactly one source"},
		{"two sources", http.MethodPost, `{"random":5,"values":[1],"scheme":"raw"}`, http.StatusBadRequest, "exactly one source"},
		{"unknown scheme", http.MethodPost, evalBody("quantum"), http.StatusBadRequest, "unknown scheme kind"},
		{"bad scheme params", http.MethodPost, evalBody("window:entries=0"), http.StatusBadRequest, "outside"},
		{"unbuildable scheme combo", http.MethodPost, evalBody("spatial"), http.StatusBadRequest, "outside [1, 6]"},
		{"unknown workload", http.MethodPost, `{"workload":"doom","bus":"reg","scheme":"raw"}`, http.StatusBadRequest, "unknown benchmark"},
		{"unknown bus", http.MethodPost, `{"workload":"li","bus":"q","scheme":"raw"}`, http.StatusBadRequest, "unknown bus"},
		{"bad verify", http.MethodPost, evalBody("raw")[:len(evalBody("raw"))-1] + `,"verify":"psychic"}`, http.StatusBadRequest, "verification policy"},
		{"wrong method", http.MethodGet, "", http.StatusMethodNotAllowed, "POST only"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest(c.method, "/v1/eval", strings.NewReader(c.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != c.wantCode {
				t.Fatalf("code %d, want %d; body: %s", rec.Code, c.wantCode, rec.Body.String())
			}
			if !strings.Contains(rec.Body.String(), c.wantIn) {
				t.Fatalf("body %q does not contain %q", rec.Body.String(), c.wantIn)
			}
			if rec.Header().Get("X-Request-Id") == "" {
				t.Fatal("missing X-Request-Id")
			}
			if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("content type %q", ct)
			}
		})
	}
}

// TestEvalMatchesDirectPath: the served numbers must be identical to what
// the request-shaped engine entry point (and hence the CLI experiment
// path, proven in internal/experiments) computes.
func TestEvalMatchesDirectPath(t *testing.T) {
	srv := testServer(t, Options{})
	rec := postEval(srv.Handler(), evalBody("context:table=16,sr=8"))
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d: %s", rec.Code, rec.Body.String())
	}
	var got experiments.EvalResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	req, err := experiments.ParseEvalRequest([]byte(evalBody("context:table=16,sr=8")))
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.EvaluateRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got != *want {
		t.Fatalf("served response diverges from engine:\ngot  %+v\nwant %+v", got, *want)
	}
}

func TestEvalOversizedBody(t *testing.T) {
	srv := testServer(t, Options{MaxBodyBytes: 256})
	var b bytes.Buffer
	b.WriteString(`{"values":[`)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", i)
	}
	b.WriteString(`],"scheme":"raw"}`)
	rec := postEval(srv.Handler(), b.String())
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("code %d, want 413; body: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "256 bytes") {
		t.Fatalf("body %q does not name the limit", rec.Body.String())
	}
}

func TestEvalTimeout(t *testing.T) {
	// A 1ns request timeout has always expired by the time the evaluation
	// starts, so the request must come back as 504, not hang or 500.
	srv := testServer(t, Options{RequestTimeout: time.Nanosecond})
	rec := postEval(srv.Handler(), evalBody("window:entries=4"))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("code %d, want 504; body: %s", rec.Code, rec.Body.String())
	}
}

func TestEvalSaturationShedsWith429(t *testing.T) {
	// A long full-mode -timeout must not leak into the back-off hint: the
	// Retry-After on a shed request is capped, not the whole 10 minutes.
	srv := testServer(t, Options{Workers: 1, QueueDepth: -1, RequestTimeout: 10 * time.Minute})
	// Occupy the single worker slot so the next request finds the (empty)
	// queue full.
	release, err := srv.pool.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	rec := postEval(srv.Handler(), evalBody("raw"))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("code %d, want 429; body: %s", rec.Code, rec.Body.String())
	}
	ra := rec.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > maxRetryAfterSeconds {
		t.Fatalf("Retry-After %q outside [1, %d] under a 10m request timeout", ra, maxRetryAfterSeconds)
	}
	// Validation failures must be rejected before consuming pool capacity,
	// so they still answer 400 (not 429) while saturated.
	if rec := postEval(srv.Handler(), evalBody("quantum")); rec.Code != http.StatusBadRequest {
		t.Fatalf("validation under saturation: code %d, want 400", rec.Code)
	}
}

func TestHealthzAndDrainingFlag(t *testing.T) {
	srv := testServer(t, Options{})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}
	srv.draining.Store(true)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"draining"`) {
		t.Fatalf("draining healthz: %d %s", rec.Code, rec.Body.String())
	}
}

// TestNilLoggerDisabled: a server built without a Logger discards logs by
// disabling every level, so access-log lines are never formatted.
func TestNilLoggerDisabled(t *testing.T) {
	srv := testServer(t, Options{})
	if srv.log.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("nil-Logger server's logger is enabled at error level")
	}
}

func TestSchemesAndWorkloadsEndpoints(t *testing.T) {
	srv := testServer(t, Options{})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/schemes", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("schemes: %d", rec.Code)
	}
	for _, kind := range []string{"window", "context", "businvert", "optmem", "vc", "lowweight", "dvs"} {
		if !strings.Contains(rec.Body.String(), fmt.Sprintf("%q", kind)) {
			t.Errorf("schemes listing missing %q: %s", kind, rec.Body.String())
		}
	}
	// Every advertised kind must ship a non-empty example that builds, so
	// the listing can never drift from the grammar.
	var listing struct {
		Schemes []struct {
			Kind    string `json:"kind"`
			Example string `json:"example"`
		} `json:"schemes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	for _, s := range listing.Schemes {
		if s.Example == "" {
			t.Errorf("kind %q has no example", s.Kind)
			continue
		}
		if rec := postEval(srv.Handler(), evalBody(s.Example)); rec.Code != http.StatusOK {
			t.Errorf("example %q does not evaluate: %d %s", s.Example, rec.Code, rec.Body.String())
		}
	}
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/workloads", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"li"`) {
		t.Fatalf("workloads: %d %s", rec.Code, rec.Body.String())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t, Options{})
	h := srv.Handler()
	postEval(h, evalBody("window:entries=8")) // seed at least one request
	postEval(h, evalBody("nonsense"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`buspower_requests_total{handler="eval",code="200"}`,
		`buspower_requests_total{handler="eval",code="400"}`,
		"buspower_request_duration_seconds_bucket",
		`le="+Inf"`,
		"buspower_eval_memo_hits",
		"buspower_eval_memo_misses",
		"buspower_trace_cache_mem_hits",
		"buspower_raw_meter_memo_hits",
		"buspower_pool_inflight 0",
		"buspower_pool_rejected_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestPublicSurface pins the routes the server answers: the eval,
// discovery and operational endpoints, and nothing under /v1/jobs —
// a batch is concurrent /v1/eval calls, a suite is buspower -exp.
func TestPublicSurface(t *testing.T) {
	h := testServer(t, Options{RequestTimeout: 10 * time.Second}).Handler()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	for _, c := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/eval", evalBody("gray")},
		{http.MethodGet, "/v1/schemes", ""},
		{http.MethodGet, "/v1/workloads", ""},
		{http.MethodGet, "/healthz", ""},
		{http.MethodGet, "/metrics", ""},
	} {
		if rec := do(c.method, c.path, c.body); rec.Code != http.StatusOK {
			t.Errorf("%s %s: %d %s", c.method, c.path, rec.Code, rec.Body.String())
		}
	}
	for _, c := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/jobs", `{"requests":[{"values":[1,2],"scheme":"gray"}]}`},
		{http.MethodGet, "/v1/jobs/x", ""},
	} {
		if rec := do(c.method, c.path, c.body); rec.Code != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", c.method, c.path, rec.Code)
		}
	}
	if body := do(http.MethodGet, "/metrics", "").Body.String(); strings.Contains(body, "buspower_jobs") {
		t.Errorf("metrics still expose a buspower_jobs series")
	}
}

// TestJobsValidation sends every request shape the retired /v1/jobs API
// used to validate and checks that none reaches a handler: each gets the
// mux's own 404, whatever the method, path depth or body, and never the
// validation message the old handler answered with.
func TestJobsValidation(t *testing.T) {
	h := testServer(t, Options{}).Handler()
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		oldMsg string
	}{
		{"empty spec", http.MethodPost, "/v1/jobs", `{}`, "exactly one"},
		{"both sources", http.MethodPost, "/v1/jobs", `{"requests":[{"values":[1],"scheme":"raw"}],"suite":{"experiments":"all"}}`, "exactly one"},
		{"unknown field", http.MethodPost, "/v1/jobs", `{"turbo":true}`, "unknown field"},
		{"bad request in batch", http.MethodPost, "/v1/jobs", `{"requests":[{"values":[1],"scheme":"quantum"}]}`, "request 0"},
		{"unbuildable scheme", http.MethodPost, "/v1/jobs", `{"requests":[{"values":[1],"scheme":"spatial"}]}`, "request 0"},
		{"bad suite id", http.MethodPost, "/v1/jobs", `{"suite":{"experiments":"figXX"}}`, "unknown experiment"},
		{"trailing data", http.MethodPost, "/v1/jobs", `{"suite":{"experiments":"all"}}{"x":1}`, "trailing"},
		{"get unknown", http.MethodGet, "/v1/jobs/deadbeef", "", "no such job"},
		{"cancel unknown", http.MethodDelete, "/v1/jobs/deadbeef", "", "no such job"},
		{"events unknown", http.MethodGet, "/v1/jobs/deadbeef/events", "", "no such job"},
		{"bad method", http.MethodPut, "/v1/jobs", "", "method"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
			if rec.Code != http.StatusNotFound {
				t.Fatalf("code = %d, want 404 (%s)", rec.Code, rec.Body.String())
			}
			if body := rec.Body.String(); strings.Contains(body, tc.oldMsg) {
				t.Fatalf("body %q still carries the jobs handler's %q", body, tc.oldMsg)
			}
		})
	}
}

// TestConcurrentMixedLoad is the -race test the acceptance criteria ask
// for: 100 parallel requests of mixed kinds against a live server, every
// eval answer identical to the engine's direct answer for the same
// request, and the pool gauges settling back to zero.
func TestConcurrentMixedLoad(t *testing.T) {
	srv := testServer(t, Options{Workers: 8, QueueDepth: 200, RequestTimeout: 60 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bodies := []string{
		evalBody("window:entries=8"),
		evalBody("context:table=16,sr=8"),
		evalBody("businvert"),
		evalBody("stride:strides=4"),
		`{"random":3000,"scheme":"window:entries=4"}`,
		`{"workload":"li","bus":"reg","quick":true,"scheme":"window:entries=8"}`,
		`{"workload":"compress","bus":"mem","quick":true,"scheme":"businvert"}`,
	}
	// Direct engine answers to compare against (computed once, up front —
	// they also warm the memo for some, but not all, of the traffic).
	want := make(map[string]string, len(bodies))
	for _, body := range bodies {
		req, err := experiments.ParseEvalRequest([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := experiments.EvaluateRequest(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		want[body] = string(data)
	}

	const parallel = 100
	var wg sync.WaitGroup
	errs := make(chan error, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := bodies[i%len(bodies)]
			resp, err := http.Post(ts.URL+"/v1/eval", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: code %d: %s", i, resp.StatusCode, buf.String())
				return
			}
			if got := strings.TrimSpace(buf.String()); got != want[body] {
				errs <- fmt.Errorf("request %d diverged:\ngot  %s\nwant %s", i, got, want[body])
			}
		}(i)
	}
	// Scrape /metrics concurrently with the load — the exposition path
	// must be race-free against in-flight evaluations.
	stop := make(chan struct{})
	var scrape sync.WaitGroup
	scrape.Add(1)
	go func() {
		defer scrape.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrape.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if inflight, waiting, _ := srv.pool.stats(); inflight != 0 || waiting != 0 {
		t.Fatalf("pool not idle after load: inflight %d waiting %d", inflight, waiting)
	}
}

// TestGracefulDrain: cancelling the serve context must flip /healthz to
// draining, let the in-flight request finish, and return nil from Serve.
func TestGracefulDrain(t *testing.T) {
	srv := testServer(t, Options{DrainTimeout: 10 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Wait until the server answers.
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	r, err := http.Post(base+"/v1/eval", "application/json", strings.NewReader(evalBody("raw")))
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("eval before drain: %v %v", err, r)
	}
	r.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// evalMemoLookups counts every eval-memo lookup so far, hit or miss: a
// response served without touching the evaluation engine leaves it
// unchanged.
func evalMemoLookups() uint64 {
	s := experiments.EvalMemoStats()
	return s.Hits + s.Misses
}

// TestResponseCacheReplay: the response cache has one key, the digest of
// the raw body. A cold request counts one miss; a byte-identical replay
// hits without reaching the evaluation engine; a re-spaced body of the
// same request misses the cache but is answered by the eval memo, with no
// new memo miss and the same bytes, and takes a slot of its own; an
// error is never stored; and the least recently used body is the one a
// full cache evicts.
func TestResponseCacheReplay(t *testing.T) {
	srv := testServer(t, Options{RequestTimeout: 10 * time.Second})
	srv.respCache = newRespCache(2)
	h := srv.Handler()
	expect := func(step string, wantHits, wantMisses, wantEvictions uint64, wantEntries int) {
		t.Helper()
		if hits, misses, evictions, entries := srv.respCache.stats(); hits != wantHits || misses != wantMisses || evictions != wantEvictions || entries != wantEntries {
			t.Fatalf("%s: hits %d misses %d evictions %d entries %d, want %d/%d/%d/%d",
				step, hits, misses, evictions, entries, wantHits, wantMisses, wantEvictions, wantEntries)
		}
	}
	post := func(step, body string) []byte {
		t.Helper()
		rec := postEval(h, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: code %d: %s", step, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}

	body := `{"values":[9,1,9,2,9,3,9,4,7],"scheme":"window:entries=4"}`
	want := post("cold", body)
	expect("cold", 0, 1, 0, 1)

	lookups := evalMemoLookups()
	if got := post("replay", body); !bytes.Equal(got, want) {
		t.Fatalf("replay body %s, want %s", got, want)
	}
	expect("replay", 1, 1, 0, 1)
	if got := evalMemoLookups(); got != lookups {
		t.Fatalf("a replay reached the eval memo: %d lookups, want %d", got, lookups)
	}

	respaced := strings.Replace(body, `],"`, `], "`, 1)
	if respaced == body {
		t.Fatalf("test body %q has no separator to respace", body)
	}
	memo := experiments.EvalMemoStats()
	if got := post("re-spaced", respaced); !bytes.Equal(got, want) {
		t.Fatalf("re-spaced body %s, want %s", got, want)
	}
	expect("re-spaced", 1, 2, 0, 2)
	if after := experiments.EvalMemoStats(); after.Hits != memo.Hits+1 || after.Misses != memo.Misses {
		t.Fatalf("re-spaced: eval memo hits %d→%d misses %d→%d, want one hit and no miss",
			memo.Hits, after.Hits, memo.Misses, after.Misses)
	}

	bad := evalBody("spatial") // parses, but no constructor admits it
	for i := 0; i < 2; i++ {
		if rec := postEval(h, bad); rec.Code != http.StatusBadRequest {
			t.Fatalf("unbuildable scheme: code %d, want 400", rec.Code)
		}
	}
	expect("error twice", 1, 4, 0, 2)

	post("replay before eviction", body) // respaced is now least recently used
	post("third body", evalBody("gray"))
	expect("third body", 2, 5, 1, 2)
	post("replay after eviction", body)
	expect("replay after eviction", 3, 5, 1, 2)
}

// TestResponseCacheSkipsErrors: an error describes one request's
// validity, admission or deadline, never the body's answer, so the
// response cache never holds it.
func TestResponseCacheSkipsErrors(t *testing.T) {
	srv := testServer(t, Options{Workers: 1, QueueDepth: -1, RequestTimeout: 10 * time.Second})
	h := srv.Handler()
	for _, bad := range []string{evalBody("quantum"), evalBody("spatial"), `{"values":[1,2`} {
		if rec := postEval(h, bad); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: code %d, want 400", bad, rec.Code)
		}
	}
	release, err := srv.pool.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	body := evalBody("gray")
	if rec := postEval(h, body); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated: code %d, want 429", rec.Code)
	}
	if _, _, _, entries := srv.respCache.stats(); entries != 0 {
		t.Fatalf("error responses left %d cache entries", entries)
	}
	release()
	if rec := postEval(h, body); rec.Code != http.StatusOK {
		t.Fatalf("after release: code %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if _, _, _, entries := srv.respCache.stats(); entries != 1 {
		t.Fatalf("success left %d cache entries, want 1", entries)
	}

	timeout := testServer(t, Options{RequestTimeout: time.Nanosecond})
	if rec := postEval(timeout.Handler(), evalBody("window:entries=4")); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timeout: code %d, want 504", rec.Code)
	}
	if _, _, _, entries := timeout.respCache.stats(); entries != 0 {
		t.Fatalf("504 left %d cache entries", entries)
	}
}

// TestResponseCacheMetricsExposition: the response cache's counters
// surface on /metrics. A one-answer cache makes every figure exact: the
// first eval misses, the replay hits, and a second request misses and
// evicts the first answer.
func TestResponseCacheMetricsExposition(t *testing.T) {
	srv := testServer(t, Options{RequestTimeout: 10 * time.Second})
	srv.respCache = newRespCache(1)
	h := srv.Handler()
	for i, body := range []string{evalBody("gray"), evalBody("gray"), evalBody("window:entries=4")} {
		if rec := postEval(h, body); rec.Code != http.StatusOK {
			t.Fatalf("eval %d: code %d", i, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"buspower_response_cache_hits 1\n",
		"buspower_response_cache_misses 2\n",
		"buspower_response_cache_evictions 1\n",
		"buspower_response_cache_entries 1\n",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestResponseCacheOneSlotPerAnswer: N distinct requests, N at most the
// cache's limit, keep N answers with no eviction, and each replay hits.
// One more request evicts the least recently used answer, so replaying
// that body misses and evaluates.
func TestResponseCacheOneSlotPerAnswer(t *testing.T) {
	const limit = 8
	srv := testServer(t, Options{RequestTimeout: 10 * time.Second})
	srv.respCache = newRespCache(limit)
	h := srv.Handler()
	body := func(i int) string { return fmt.Sprintf(`{"values":[1,2,3,%d],"scheme":"gray"}`, i) }
	for i := 0; i < limit; i++ {
		if rec := postEval(h, body(i)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: code %d", i, rec.Code)
		}
	}
	if hits, misses, evictions, entries := srv.respCache.stats(); hits != 0 || misses != limit || evictions != 0 || entries != limit {
		t.Fatalf("%d distinct requests: hits %d misses %d evictions %d entries %d, want 0/%d/0/%d", limit, hits, misses, evictions, entries, limit, limit)
	}
	for i := 1; i < limit; i++ { // replay all but the first, leaving it least recently used
		if rec := postEval(h, body(i)); rec.Code != http.StatusOK {
			t.Fatalf("replay %d: code %d", i, rec.Code)
		}
	}
	if hits, misses, _, _ := srv.respCache.stats(); hits != limit-1 || misses != limit {
		t.Fatalf("replays: hits %d misses %d, want every replay a hit", hits, misses)
	}
	if rec := postEval(h, body(limit)); rec.Code != http.StatusOK {
		t.Fatalf("request %d: code %d", limit, rec.Code)
	}
	if _, _, evictions, entries := srv.respCache.stats(); evictions != 1 || entries != limit {
		t.Fatalf("one more answer: evictions %d entries %d, want 1/%d", evictions, entries, limit)
	}
	lookups := evalMemoLookups()
	if rec := postEval(h, body(0)); rec.Code != http.StatusOK {
		t.Fatalf("evicted body: code %d", rec.Code)
	}
	if hits, misses, _, _ := srv.respCache.stats(); hits != limit-1 || misses != limit+2 {
		t.Fatalf("evicted body: hits %d misses %d, want it to miss", hits, misses)
	}
	if evalMemoLookups() == lookups {
		t.Fatal("the evicted answer was served without an evaluation")
	}
}

// TestEvalAddressBusMatchesUncachedRun: a /v1/eval request on the memory
// address bus, which the trace cache keeps packed, answers exactly what
// coding.Evaluate computes on the same stream from a plain simulation
// that bypasses the cache.
func TestEvalAddressBusMatchesUncachedRun(t *testing.T) {
	srv := testServer(t, Options{RequestTimeout: 30 * time.Second})
	const scheme = "window:entries=8"
	rec := postEval(srv.Handler(), fmt.Sprintf(`{"workload":"li","bus":"addr","quick":true,"scheme":%q}`, scheme))
	if rec.Code != http.StatusOK {
		t.Fatalf("code %d: %s", rec.Code, rec.Body.String())
	}
	var got experiments.EvalResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}

	w, err := workload.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := workload.Run(w, experiments.QuickConfig().Run)
	if err != nil {
		t.Fatal(err)
	}
	addr := make([]uint32, len(ts.Addr))
	for i, v := range ts.Addr {
		addr[i] = uint32(v)
	}
	tc, err := coding.BuildScheme(scheme)
	if err != nil {
		t.Fatal(err)
	}
	want, err := coding.Evaluate(tc, addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != "workload:li/addr" {
		t.Errorf("source %q", got.Source)
	}
	if got.Raw.Transitions != want.Raw.Transitions() || got.Raw.Couplings != want.Raw.Couplings() {
		t.Errorf("raw stats %+v, want %d/%d", got.Raw, want.Raw.Transitions(), want.Raw.Couplings())
	}
	if got.Coded.Transitions != want.Coded.Transitions() || got.Coded.Couplings != want.Coded.Couplings() {
		t.Errorf("coded stats %+v, want %d/%d", got.Coded, want.Coded.Transitions(), want.Coded.Couplings())
	}
	if got.Ops != want.Ops {
		t.Errorf("ops %+v, want %+v", got.Ops, want.Ops)
	}
	if pct := 100 * want.EnergyRemoved(); got.EnergyRemovedPct != pct {
		t.Errorf("energy removed %v%%, want %v%%", got.EnergyRemovedPct, pct)
	}
}
