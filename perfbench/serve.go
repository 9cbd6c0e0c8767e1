package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"buspower/internal/coding"
	"buspower/internal/experiments"
	"buspower/internal/serve"
	"buspower/internal/workload"
)

// The serve workloads drive an in-process serve.Server over loopback with
// a closed loop of nproc connections POSTing /v1/eval at full scale.

// evalItem is one catalogue request: a scheme on one workload bus.
type evalItem struct {
	Workload, Bus, Scheme string
}

func (it evalItem) key() string { return it.Workload + "/" + it.Bus }

func (it evalItem) body(verify string) []byte {
	data, err := json.Marshal(experiments.EvalRequest{Workload: it.Workload, Bus: it.Bus, Scheme: it.Scheme, Verify: verify})
	if err != nil {
		panic(err) // plain strings always marshal
	}
	return data
}

// catalogue lists every request serve-miss may send: window, context,
// stride, inversion and vc configurations × every workload × the register
// and memory buses. The scheme-side Λ is part of a configuration's
// identity, so varying it gives distinct requests of equal cost.
func catalogue() []evalItem {
	lambdas := []string{"0.25", "0.5", "1", "2", "4"}
	var schemes []string
	for e := 1; e <= 64; e++ {
		for _, l := range lambdas {
			schemes = append(schemes, fmt.Sprintf("window:entries=%d,lambda=%s", e, l))
		}
	}
	for _, t := range []int{4, 8, 16, 32, 64, 128} {
		for _, sr := range []int{2, 4, 8, 16} {
			for _, div := range []int{0, 256, 1024, 4096} {
				for _, tr := range []bool{false, true} {
					for _, l := range lambdas[1:4] {
						schemes = append(schemes, fmt.Sprintf("context:table=%d,sr=%d,divide=%d,transition=%t,lambda=%s", t, sr, div, tr, l))
					}
				}
			}
		}
	}
	for s := 1; s <= 32; s++ {
		for _, l := range lambdas {
			schemes = append(schemes, fmt.Sprintf("stride:strides=%d,lambda=%s", s, l))
		}
	}
	for p := 1; p <= 8; p++ {
		for _, l := range lambdas {
			schemes = append(schemes, fmt.Sprintf("inversion:patterns=%d,lambda=%s", p, l))
		}
	}
	for x := 1; x <= 4; x++ {
		schemes = append(schemes, fmt.Sprintf("vc:extra=%d", x))
	}
	var items []evalItem
	for _, w := range workload.Names() {
		for _, b := range []string{"reg", "mem"} {
			for _, s := range schemes {
				items = append(items, evalItem{w, b, s})
			}
		}
	}
	return items
}

// hitSetSize is how many distinct requests serve-hit repeats.
const hitSetSize = 32

// replaySamples is how many served requests the traced run replays
// in-process per layer.
const replaySamples = 24

// served is one serve-miss response kept for checking after the window.
type served struct {
	item   evalItem
	status int
	body   []byte
	err    error
}

// serverStats is the part of /metrics the per-layer report reads.
type serverStats struct {
	handlerSum, handlerCount float64
	cacheHits, cacheMisses   float64
	rejected                 float64
}

// processStats are in-process counters read around a window.
type processStats struct {
	mem      runtime.MemStats
	cycles   uint64
	memo     experiments.MemoStats
	rawMeter experiments.MemoStats
	sliced   experiments.MemoStats
	workload workload.CacheStats
	server   serverStats
}

type serveBench struct {
	hit   bool
	seed  int64
	conns int

	items   []evalItem
	order   []int        // seeded permutation of items
	next    atomic.Int64 // serve-miss: next position in order; never reused
	rawWant map[string]experiments.BusStats
	lens    map[string]int

	hitBodies, hitWant [][]byte

	simMS  []float64 // per set-up
	insts  uint64
	url    string
	client *http.Client
	stop   context.CancelFunc
	done   chan error

	// The last window's data, for the per-layer report.
	served        []served
	before, after processStats
	winElapsed    time.Duration
	okOps         int
	meanLatencyMS float64
}

func newServeBench(hit bool, seed int64) *serveBench {
	conns := runtime.NumCPU()
	return &serveBench{
		hit:   hit,
		seed:  seed,
		conns: conns,
		client: &http.Client{
			Timeout: 120 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
				DisableCompression:  true,
			},
		},
	}
}

func (b *serveBench) setupRepeats() int { return 3 }

// setup starts from empty trace caches and memos, simulates every
// workload, meters the raw buses the checks compare against, and starts
// a fresh server; serve-hit then warms its request set.
func (b *serveBench) setup(i int, rec *recorder, parent int64) error {
	b.close()
	workload.ClearTraceCache()
	experiments.ClearEvalMemo()
	simMS, insts, err := loadTraces(rec, parent, b.conns, "cpu.sim")
	if err != nil {
		return err
	}
	b.simMS = append(b.simMS, simMS)
	b.insts = insts
	b.rawWant = map[string]experiments.BusStats{}
	b.lens = map[string]int{}
	for _, w := range workload.Names() {
		ts, err := workload.Traces(w, experiments.DefaultConfig().Run)
		if err != nil {
			return err
		}
		for bus, tr := range map[string][]uint64{"reg": ts.Reg, "mem": ts.Mem} {
			k := w + "/" + bus
			b.rawWant[k] = rawStats(coding.MeasureRawValues(32, tr), 1)
			b.lens[k] = len(tr)
		}
	}
	b.items = catalogue()
	b.order = rand.New(rand.NewSource(b.seed)).Perm(len(b.items))
	b.next.Store(0)

	srv := serve.NewServer(serve.Options{
		Workers:        b.conns,
		QueueDepth:     64,
		RequestTimeout: 60 * time.Second,
		DrainTimeout:   10 * time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, stop := context.WithCancel(context.Background())
	b.stop, b.done = stop, make(chan error, 1)
	go func() { b.done <- srv.Serve(ctx, ln) }()
	b.url = "http://" + ln.Addr().String()

	if b.hit {
		b.hitBodies, b.hitWant = nil, nil
		for _, idx := range b.order[:hitSetSize] {
			body := b.items[idx].body("")
			status, resp, err := b.post(body)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("warming %s: status %d, %v", body, status, err)
			}
			b.hitBodies = append(b.hitBodies, body)
			b.hitWant = append(b.hitWant, resp)
		}
	}
	return nil
}

func (b *serveBench) post(body []byte) (int, []byte, error) {
	resp, err := b.client.Post(b.url+"/v1/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (b *serveBench) read() (processStats, error) {
	var ps processStats
	runtime.ReadMemStats(&ps.mem)
	ps.cycles = coding.EvaluatedCycles()
	ps.memo = experiments.EvalMemoStats()
	ps.rawMeter = experiments.RawMeterMemoStats()
	ps.sliced = experiments.SlicedCacheStats()
	ps.workload = workload.Stats()
	resp, err := b.client.Get(b.url + "/metrics")
	if err != nil {
		return ps, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case `buspower_request_duration_seconds_sum{handler="eval"}`:
			ps.server.handlerSum = v
		case `buspower_request_duration_seconds_count{handler="eval"}`:
			ps.server.handlerCount = v
		case "buspower_response_cache_hits":
			ps.server.cacheHits = v
		case "buspower_response_cache_misses":
			ps.server.cacheMisses = v
		case "buspower_pool_rejected_total":
			ps.server.rejected = v
		}
	}
	return ps, sc.Err()
}

// warmupTime is the unmeasured load before the first window: the first
// requests on a fresh server also pay for connection set-up, heap growth
// and the first raw meterings.
const warmupTime = time.Second

func (b *serveBench) warmup() (opCounts, error) {
	ws, err := b.window(warmupTime, nil)
	return ws.counts, err
}

func (b *serveBench) window(d time.Duration, rec *recorder) (windowStats, error) {
	var ws windowStats
	if err := resetPeakRSS(); err != nil {
		return ws, err
	}
	before, err := b.read()
	if err != nil {
		return ws, err
	}
	winID := rec.newID()
	var hits atomic.Int64
	lat := make([][]time.Duration, b.conns)
	miss := make([][]served, b.conns)
	counts := make([]opCounts, b.conns)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < b.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				var body, want []byte
				var item evalItem
				var reqID int64
				if b.hit {
					k := hits.Add(1) - 1
					body, want = b.hitBodies[k%hitSetSize], b.hitWant[k%hitSetSize]
					reqID = k + 1
				} else {
					pos := b.next.Add(1) - 1
					if int(pos) >= len(b.order) {
						return // catalogue used up: the window ends early
					}
					item = b.items[b.order[pos]]
					body = item.body("")
					reqID = pos + 1
				}
				t0 := time.Now()
				status, resp, err := b.post(body)
				t1 := time.Now()
				rec.record(winID, reqID, "serve.request", t0, t1)
				lat[c] = append(lat[c], t1.Sub(t0))
				counts[c].Attempted++
				if b.hit {
					switch {
					case err != nil || status != http.StatusOK:
						counts[c].Failed++
					case !bytes.Equal(resp, want):
						counts[c].Wrong++
					}
					continue
				}
				miss[c] = append(miss[c], served{item: item, status: status, body: resp, err: err})
			}
		}(c)
	}
	wg.Wait()
	end := time.Now()
	rec.add(winID, 0, 0, "serve.window", start, end)
	if ws.peakRSSMB, err = peakRSSMB(); err != nil {
		return ws, err
	}
	ws.elapsed = end.Sub(start)
	for c := range lat {
		ws.latencies = append(ws.latencies, lat[c]...)
		ws.counts.add(counts[c])
	}
	after, err := b.read()
	if err != nil {
		return ws, err
	}
	b.served = b.served[:0]
	for c := range miss {
		b.served = append(b.served, miss[c]...)
	}
	if !b.hit {
		ws.counts.add(b.checkMisses())
	}
	b.before, b.after, b.winElapsed = before, after, ws.elapsed
	b.okOps = ws.counts.Attempted - ws.counts.Failed - ws.counts.Wrong
	b.meanLatencyMS = 0
	for _, l := range ws.latencies {
		b.meanLatencyMS += msOf(l) / float64(len(ws.latencies))
	}
	return ws, nil
}

// fullVerifySamples is how many served serve-miss requests are
// re-evaluated under verify=full after each window.
const fullVerifySamples = 4

// checkMisses checks every serve-miss response and re-evaluates a seeded
// sample under verify=full; the sample must describe the same result.
// The re-evaluations count as ops of their own.
func (b *serveBench) checkMisses() opCounts {
	var c opCounts
	var ok []int
	for i, s := range b.served {
		switch {
		case s.err != nil || s.status != http.StatusOK:
			c.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: status %d, %v\n", s.item.key(), s.item.Scheme, s.status, s.err)
		default:
			if err := checkMissResponse(s.status, s.body, b.rawWant[s.item.key()]); err != nil {
				c.Wrong++
				fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", s.item.key(), s.item.Scheme, err)
				continue
			}
			ok = append(ok, i)
		}
	}
	rng := rand.New(rand.NewSource(b.seed ^ int64(len(b.served))))
	for n := 0; n < fullVerifySamples && len(ok) > 0; n++ {
		s := b.served[ok[rng.Intn(len(ok))]]
		c.Attempted++
		status, resp, err := b.post(s.item.body("full"))
		if err != nil || status != http.StatusOK {
			c.Failed++
			continue
		}
		if same, err := sameEvaluation(resp, s.body); err != nil || !same {
			c.Wrong++
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: verify=full result differs from the sampled one\n", s.item.key(), s.item.Scheme)
		}
	}
	return c
}

// replayBodies picks the request bodies the traced run replays in-process.
func (b *serveBench) replayBodies() [][]byte {
	if b.hit {
		return b.hitBodies[:min(replaySamples, len(b.hitBodies))]
	}
	var out [][]byte
	for _, s := range b.served {
		if len(out) == replaySamples {
			break
		}
		if s.err == nil && s.status == http.StatusOK {
			out = append(out, s.item.body(""))
		}
	}
	return out
}

func (b *serveBench) layers(ws windowStats, rec *recorder) (map[string]float64, opCounts, error) {
	var extra opCounts
	m := map[string]float64{}
	before, after := b.before, b.after
	secs := b.winElapsed.Seconds()

	m["cpu.sim_ms"] = median(b.simMS)
	m["cpu.insts"] = float64(b.insts)
	m["cpu.minst_per_s"] = ratio(m["cpu.insts"], m["cpu.sim_ms"]*1000)
	m["workload.mem_hits"] = float64(after.workload.MemHits - before.workload.MemHits)
	m["workload.mem_misses"] = float64(after.workload.MemMisses - before.workload.MemMisses)
	m["workload.disk_hits"] = float64(after.workload.DiskHits - before.workload.DiskHits)
	m["workload.disk_misses"] = float64(after.workload.DiskMisses - before.workload.DiskMisses)
	m["workload.disk_errors"] = float64(after.workload.DiskErrors - before.workload.DiskErrors)
	m["experiments.memo_hits"] = float64(after.memo.Hits - before.memo.Hits)
	m["experiments.memo_misses"] = float64(after.memo.Misses - before.memo.Misses)
	m["experiments.memo_hit_ratio"] = ratio(m["experiments.memo_hits"], m["experiments.memo_hits"]+m["experiments.memo_misses"])
	m["experiments.raw_meter_misses"] = float64(after.rawMeter.Misses - before.rawMeter.Misses)
	m["experiments.sliced_misses"] = float64(after.sliced.Misses - before.sliced.Misses)

	cycles := float64(after.cycles - before.cycles)
	m["coding.cycles"] = cycles
	m["coding.mcycles_per_s"] = ratio(cycles, secs*1e6)
	var useful float64
	for _, s := range b.served {
		if s.err == nil && s.status == http.StatusOK {
			useful += float64(b.lens[s.item.key()])
		}
	}
	m["coding.useful_ratio"] = ratio(useful, cycles)

	dCount := after.server.handlerCount - before.server.handlerCount
	m["serve.handler_ms"] = 1000 * ratio(after.server.handlerSum-before.server.handlerSum, dCount)
	m["serve.transport_ms"] = b.meanLatencyMS - m["serve.handler_ms"]
	dHits := after.server.cacheHits - before.server.cacheHits
	m["serve.resp_cache_hit_ratio"] = ratio(dHits, dHits+after.server.cacheMisses-before.server.cacheMisses)
	m["serve.pool_rejected"] = after.server.rejected - before.server.rejected

	m["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	m["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	m["runtime.alloc_mb_per_op"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/(1<<20), float64(b.okOps))

	if err := b.replay(m, rec); err != nil {
		return nil, extra, err
	}
	return m, extra, nil
}

// replay re-runs a sample of the window's request bodies in-process,
// timing the serve path's stages (parse, evaluate from cold memos,
// marshal) and the scalar coding evaluation underneath them.
func (b *serveBench) replay(m map[string]float64, rec *recorder) error {
	bodies := b.replayBodies()
	experiments.ClearEvalMemo()
	policy, err := coding.ParseVerifyPolicy("sampled")
	if err != nil {
		return err
	}
	var parse, eval, marshal, enc []float64
	for i, body := range bodies {
		req := int64(i + 1)
		t0 := time.Now()
		parsed, err := experiments.ParseEvalRequest(body)
		t1 := time.Now()
		if err != nil {
			return err
		}
		resp, err := experiments.EvaluateRequest(context.Background(), parsed)
		t2 := time.Now()
		if err != nil {
			return err
		}
		if _, err := json.Marshal(resp); err != nil {
			return err
		}
		t3 := time.Now()
		rec.record(0, req, "serve.replay.parse", t0, t1)
		rec.record(0, req, "serve.replay.eval", t1, t2)
		rec.record(0, req, "serve.replay.marshal", t2, t3)
		parse = append(parse, msOf(t1.Sub(t0)))
		eval = append(eval, msOf(t2.Sub(t1)))
		marshal = append(marshal, msOf(t3.Sub(t2)))

		tc, err := coding.BuildScheme(parsed.Scheme)
		if err != nil {
			return err
		}
		ts, err := workload.Traces(parsed.Workload, experiments.DefaultConfig().Run)
		if err != nil {
			return err
		}
		tr := ts.Reg
		if parsed.Bus == "mem" {
			tr = ts.Mem
		}
		raw := coding.MeasureRawValues(tc.DataWidth(), tr)
		ev := coding.Evaluator{Verify: policy}
		ev.Use(tc)
		t4 := time.Now()
		if _, err := ev.Evaluate(tr, parsed.Lambda, raw); err != nil {
			return err
		}
		t5 := time.Now()
		rec.record(0, req, "coding.eval", t4, t5)
		enc = append(enc, msOf(t5.Sub(t4)))
	}
	m["serve.parse_ms"] = median(parse)
	m["serve.eval_ms"] = median(eval)
	m["serve.marshal_ms"] = median(marshal)
	m["coding.eval_ms"] = median(enc)
	return nil
}

// close stops the running server, if any, and waits for it to drain.
func (b *serveBench) close() {
	if b.stop == nil {
		return
	}
	b.stop()
	if err := <-b.done; err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server drain:", err)
	}
	b.stop = nil
	b.client.CloseIdleConnections()
}
