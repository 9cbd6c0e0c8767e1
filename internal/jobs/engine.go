package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"buspower/internal/coding"
	"buspower/internal/experiments"
)

// ErrQueueFull is returned by Submit when the item queue cannot admit
// the whole job; the HTTP layer translates it to 429.
var ErrQueueFull = errors.New("jobs: item queue full")

// ErrDraining is returned by Submit once Drain has begun.
var ErrDraining = errors.New("jobs: engine draining")

// EngineStats is a point-in-time snapshot of the engine for /metrics.
type EngineStats struct {
	// Workers is the configured pool size.
	Workers int
	// QueueDepth is the number of items waiting for a worker.
	QueueDepth int
	// ItemsCompleted counts items finished since the process started
	// (done, failed or cancelled) — a monotone counter, so items/s is
	// its rate.
	ItemsCompleted uint64
}

// itemRef addresses one unit of queued work.
type itemRef struct {
	id    string
	index int
}

// activeJob is the engine's bookkeeping for a job with queued or running
// items. remaining drives the terminal transition; ctx/cancel carry
// cooperative cancellation into the evaluation (ctx is created lazily by
// the first worker that touches the job).
type activeJob struct {
	ctx       context.Context
	cancel    context.CancelFunc
	remaining int
	cancelled bool
}

// Engine drains job items through the experiments engine on a dedicated
// worker pool — deliberately separate from the synchronous /v1/eval
// admission pool, so a deep batch backlog can never starve interactive
// requests (and vice versa). Items of one job run independently: several
// workers may serve one job's items concurrently, and per-item outcomes
// are journaled as they land, so progress survives a crash at item
// granularity.
type Engine struct {
	store   *Store
	workers int
	queue   chan itemRef

	mu     sync.Mutex
	active map[string]*activeJob

	baseCtx context.Context
	stop    context.CancelFunc
	// quit tells workers to stop picking up new items (graceful drain);
	// stop aborts the items themselves (forced drain).
	quit     chan struct{}
	draining atomic.Bool
	wg       sync.WaitGroup

	itemsCompleted atomic.Uint64

	// runEval and runExperiment are the per-item entry points, injectable
	// by tests to exercise the state machine without real evaluations.
	runEval       func(ctx context.Context, req *experiments.EvalRequest) (interface{}, error)
	runExperiment func(ctx context.Context, it Item) (interface{}, error)
}

// NewEngine builds an engine over the store. workers <= 0 defaults to
// half of GOMAXPROCS (floored at 1): batch throughput matters, but the
// interactive pool keeps priority on the machine. queueDepth <= 0
// defaults to 4×MaxItems.
func NewEngine(store *Store, workers, queueDepth int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / 2
		if workers < 1 {
			workers = 1
		}
	}
	if queueDepth <= 0 {
		queueDepth = 4 * MaxItems
	}
	ctx, cancel := context.WithCancel(context.Background())
	perItem := runtime.GOMAXPROCS(0) / workers
	if perItem < 1 {
		perItem = 1
	}
	return &Engine{
		store:   store,
		workers: workers,
		queue:   make(chan itemRef, queueDepth),
		active:  map[string]*activeJob{},
		baseCtx: ctx,
		stop:    cancel,
		quit:    make(chan struct{}),
		runEval: func(ctx context.Context, req *experiments.EvalRequest) (interface{}, error) {
			resp, err := experiments.EvaluateRequest(ctx, *req)
			if err != nil {
				return nil, err
			}
			return resp, nil
		},
		runExperiment: func(ctx context.Context, it Item) (interface{}, error) {
			return defaultRunExperiment(ctx, it, perItem)
		},
	}
}

// defaultRunExperiment runs one registered experiment with the same
// sampled-verification default the serving layer uses for /v1/eval
// (results are bit-identical under every policy). parallel is the item's
// share of the machine: with the worker pool sized at a fraction of
// GOMAXPROCS, each item's grid sweeps may shard across the spare cores
// without the pool as a whole oversubscribing the box.
func defaultRunExperiment(ctx context.Context, it Item, parallel int) (interface{}, error) {
	cfg := experiments.DefaultConfig()
	if it.Quick {
		cfg = experiments.QuickConfig()
	}
	policy, err := coding.ParseVerifyPolicy("sampled")
	if err != nil {
		return nil, err
	}
	cfg.Verify = policy
	cfg.Parallel = parallel
	return experiments.RunContext(ctx, it.Experiment, cfg)
}

// Start launches the worker pool and re-enqueues every incomplete job
// recovered from the journal (their completed items stay completed; only
// the missing work re-runs, and much of it lands in the eval memo).
// Start must be called exactly once, before any Submit.
func (e *Engine) Start() {
	resumed := e.store.Incomplete()
	// Grow the queue if the recovered backlog alone would overflow it,
	// so resumption can never deadlock the engine against itself.
	var backlog int
	for _, j := range resumed {
		backlog += len(j.Items)
	}
	if backlog > cap(e.queue) {
		e.queue = make(chan itemRef, backlog)
	}
	for _, j := range resumed {
		e.schedule(j)
	}
	for i := 0; i < e.workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
}

// schedule registers bookkeeping for a job and queues its incomplete
// items. The caller must have verified queue capacity; sends cannot
// block because every producer checks capacity under e.mu.
func (e *Engine) schedule(j *Job) {
	e.mu.Lock()
	a := &activeJob{}
	for i := range j.Results {
		if j.Results[i].Status != ItemDone {
			a.remaining++
		}
	}
	if a.remaining == 0 {
		// Nothing left to run (e.g. a recovered job whose terminal state
		// record was lost after its last item landed): finalize directly.
		e.mu.Unlock()
		e.finalize(j.ID, a)
		return
	}
	e.active[j.ID] = a
	for i := range j.Results {
		if j.Results[i].Status != ItemDone {
			e.queue <- itemRef{id: j.ID, index: i}
		}
	}
	e.mu.Unlock()
}

// jobCancelled reports whether cancellation was requested for this job
// specifically (as opposed to the whole engine shutting down).
func (e *Engine) jobCancelled(id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if a, ok := e.active[id]; ok {
		return a.cancelled
	}
	return false
}

// jobCtx returns the job's cancellation context, creating it lazily
// under the engine lock.
func (e *Engine) jobCtx(id string) context.Context {
	e.mu.Lock()
	defer e.mu.Unlock()
	a, ok := e.active[id]
	if !ok || a.cancelled {
		// Finished or cancelled; a dead context keeps stray refs idle.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}
	if a.ctx == nil {
		a.ctx, a.cancel = context.WithCancel(e.baseCtx)
	}
	return a.ctx
}

// Submit admits a parsed item batch: dedup by content address (a
// pending, running or done job with the same id is returned as-is;
// failed and cancelled jobs re-activate and re-run their incomplete
// items), journal, enqueue. The bool is true when new work was
// scheduled, false when the submission coalesced onto an existing job.
func (e *Engine) Submit(items []Item) (*Job, bool, error) {
	if len(items) == 0 {
		return nil, false, errors.New("jobs: empty job")
	}
	if e.draining.Load() {
		return nil, false, ErrDraining
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	id := JobID(items)
	need := len(items)
	if j, ok := e.store.Get(id); ok {
		if _, scheduled := e.active[id]; scheduled || j.State == StateDone || !j.State.Terminal() {
			// Already scheduled, already answered, or mid-flight:
			// coalesce — the caller polls the existing job.
			return j, false, nil
		}
		// Terminal failed/cancelled: re-activation re-runs only the
		// items that never completed.
		need = 0
		for i := range j.Results {
			if j.Results[i].Status != ItemDone {
				need++
			}
		}
	}
	// Capacity check before any journaling: a job is admitted whole or
	// not at all. Capacity cannot shrink under us — every producer holds
	// e.mu — so the sends below never block.
	if need > cap(e.queue)-len(e.queue) {
		return nil, false, ErrQueueFull
	}
	j, created, err := e.store.Submit(items)
	if err != nil {
		return nil, false, err
	}
	if !created {
		return j, false, nil
	}
	a := &activeJob{}
	for i := range j.Results {
		if j.Results[i].Status != ItemDone {
			a.remaining++
		}
	}
	if a.remaining == 0 {
		// Re-activated job whose items had all completed (a cancel that
		// landed after the last item): nothing to run, finalize now.
		e.mu.Unlock()
		e.finalize(id, a)
		e.mu.Lock() // restore for the deferred unlock
		j, _ = e.store.Get(id)
		return j, true, nil
	}
	e.active[id] = a
	for i := range j.Results {
		if j.Results[i].Status != ItemDone {
			e.queue <- itemRef{id: id, index: i}
		}
	}
	return j, true, nil
}

// Cancel requests cooperative cancellation: the job transitions to
// cancelled immediately, queued items short-circuit, and running items
// see their context end. ok=false if the job is unknown.
func (e *Engine) Cancel(id string) (*Job, bool) {
	e.mu.Lock()
	if a, active := e.active[id]; active {
		a.cancelled = true
		if a.cancel != nil {
			a.cancel()
		}
	}
	e.mu.Unlock()
	j, ok := e.store.Get(id)
	if !ok {
		return nil, false
	}
	if !j.State.Terminal() {
		e.store.SetState(id, StateCancelled)
		j, _ = e.store.Get(id)
	}
	return j, true
}

// Get proxies Store.Get.
func (e *Engine) Get(id string) (*Job, bool) { return e.store.Get(id) }

// List proxies Store.List.
func (e *Engine) List() []*Job { return e.store.List() }

// Subscribe proxies Store.Subscribe.
func (e *Engine) Subscribe(id string) (<-chan Event, func(), bool) { return e.store.Subscribe(id) }

// Stats snapshots the engine for /metrics.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Workers:        e.workers,
		QueueDepth:     len(e.queue),
		ItemsCompleted: e.itemsCompleted.Load(),
	}
}

// StoreStats proxies Store.Stats.
func (e *Engine) StoreStats() StoreStats { return e.store.Stats() }

// worker drains the item queue until quit or stop.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.quit:
			return
		case ref := <-e.queue:
			e.runItem(ref)
		}
	}
}

// runItem executes one queued item and journals its outcome. A cancelled
// job's items short-circuit to cancelled results without running.
func (e *Engine) runItem(ref itemRef) {
	job, ok := e.store.Get(ref.id)
	if !ok || ref.index >= len(job.Results) {
		return
	}
	if job.Results[ref.index].Status == ItemDone {
		// Already durable (idempotent journal replay); just account for
		// the queued ref.
		e.finishItem(ref.id)
		return
	}
	if e.jobCancelled(ref.id) || job.State == StateCancelled {
		e.completeItem(ref, ItemResult{Status: ItemCancelled, Error: context.Canceled.Error()})
		return
	}
	ctx := e.jobCtx(ref.id)
	if ctx.Err() != nil {
		// The engine is stopping, not the job: leave the item incomplete
		// so the next Start resumes it from the journal.
		return
	}
	if job.State == StatePending {
		e.store.SetState(ref.id, StateRunning)
	}
	e.store.SetItemRunning(ref.id, ref.index)
	it := job.Items[ref.index]
	start := time.Now()
	var payload interface{}
	var err error
	switch it.Kind {
	case "eval":
		payload, err = e.runEval(ctx, it.Eval)
	case "experiment":
		payload, err = e.runExperiment(ctx, it)
	default:
		err = fmt.Errorf("jobs: unknown item kind %q", it.Kind)
	}
	elapsed := float64(time.Since(start).Microseconds()) / 1000
	out := ItemResult{ElapsedMS: elapsed}
	switch {
	case err == nil:
		data, merr := json.Marshal(payload)
		if merr != nil {
			out.Status = ItemFailed
			out.Error = merr.Error()
		} else {
			out.Status = ItemDone
			out.Result = data
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if !e.jobCancelled(ref.id) {
			// Aborted by engine shutdown, not job cancellation: record
			// nothing, so the restart re-runs this item rather than
			// freezing the job in a cancelled state it never asked for.
			return
		}
		out.Status = ItemCancelled
		out.Error = err.Error()
	default:
		out.Status = ItemFailed
		out.Error = err.Error()
	}
	e.completeItem(ref, out)
}

// completeItem journals the outcome and performs the terminal transition
// when this was the job's last incomplete item. A journal failure needs
// no handling here: the store has already recorded the item failed, so
// the job finalizes failed.
func (e *Engine) completeItem(ref itemRef, res ItemResult) {
	e.store.SetItemResult(ref.id, ref.index, res)
	e.itemsCompleted.Add(1)
	e.finishItem(ref.id)
}

// finishItem decrements the job's incomplete count, finalizing at zero.
func (e *Engine) finishItem(id string) {
	e.mu.Lock()
	a, ok := e.active[id]
	if !ok {
		e.mu.Unlock()
		return
	}
	a.remaining--
	if a.remaining > 0 {
		e.mu.Unlock()
		return
	}
	delete(e.active, id)
	e.mu.Unlock()
	if a.cancel != nil {
		a.cancel()
	}
	e.finalize(id, a)
}

// finalize applies the job's terminal state from its item outcomes.
func (e *Engine) finalize(id string, a *activeJob) {
	j, ok := e.store.Get(id)
	if !ok || j.State.Terminal() {
		return
	}
	switch {
	case a.cancelled || j.Progress.Cancelled > 0:
		e.store.SetState(id, StateCancelled)
	case j.Progress.Failed > 0:
		e.store.SetState(id, StateFailed)
	default:
		e.store.SetState(id, StateDone)
	}
}

// Drain shuts the engine down gracefully: no new submissions, workers
// finish the items they hold, and the store compacts and closes so every
// completed result is durable. If ctx expires first, running items are
// aborted through their contexts — their jobs resume from the last
// completed item on the next Start. Queued-but-unstarted items stay
// journaled as pending for the same resume path.
func (e *Engine) Drain(ctx context.Context) error {
	if !e.draining.CompareAndSwap(false, true) {
		return nil
	}
	close(e.quit)
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Out of budget: abort in-flight evaluations cooperatively.
		e.stop()
		<-done
	}
	return e.store.Close()
}
