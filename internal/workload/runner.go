package workload

import (
	"fmt"
	"sync"
	"sync/atomic"

	"buspower/internal/cpu"
)

// TraceSet is the bus traffic extracted from one workload run.
type TraceSet struct {
	// Workload names the benchmark.
	Workload string
	// Reg is the integer register-file output port value stream.
	Reg []uint64
	// Mem is the memory data bus value stream.
	Mem []uint64
	// Addr is the memory address bus stream (one address per Mem beat).
	Addr []uint64
	// Summary carries the timing model's run statistics.
	Summary cpu.BusTraces
}

// RunConfig bounds a trace-collection run.
type RunConfig struct {
	// MaxInstructions caps the simulated dynamic instruction count.
	MaxInstructions uint64
	// MaxBusValues caps each captured bus trace length (0 = unlimited).
	MaxBusValues int
}

// DefaultRunConfig is what the experiments use: enough instructions for
// trace statistics to stabilize while keeping full-suite sweeps fast.
func DefaultRunConfig() RunConfig {
	return RunConfig{MaxInstructions: 1_500_000, MaxBusValues: 120_000}
}

// Run executes the workload under the out-of-order timing model and
// captures its bus traffic.
func Run(w Workload, cfg RunConfig) (TraceSet, error) {
	p, err := w.Program()
	if err != nil {
		return TraceSet{}, err
	}
	sim, err := cpu.NewSimulator(p, cpu.DefaultConfig())
	if err != nil {
		return TraceSet{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	tr := sim.Run(cfg.MaxInstructions, cfg.MaxBusValues)
	if len(tr.RegisterBus) == 0 {
		return TraceSet{}, fmt.Errorf("workload %s: produced no register bus traffic", w.Name)
	}
	return TraceSet{Workload: w.Name, Reg: tr.RegisterBus, Mem: tr.MemoryBus, Addr: tr.MemoryAddrBus, Summary: tr}, nil
}

type cacheKey struct {
	name string
	cfg  RunConfig
}

// cacheEntry is one single-flight cache slot: the first caller to claim a
// key simulates and closes ready; everyone else blocks on ready and reads
// the stored result.
type cacheEntry struct {
	ready chan struct{}
	ts    TraceSet
	err   error
}

var (
	cacheMu     sync.Mutex
	traceCache  = map[cacheKey]*cacheEntry{}
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	diskHits    atomic.Uint64
	diskMisses  atomic.Uint64
	diskErrors  atomic.Uint64
)

// Traces returns the workload's bus traces, memoized per (workload,
// config) so the many figure sweeps sharing a trace do not re-simulate.
//
// The cache is single-flight and safe for concurrent use: when N callers
// ask for the same (workload, config) at once, exactly one runs the
// simulation while the rest block until its result (or error — errors are
// deterministic here, so they are cached too) is ready. All callers share
// the same backing arrays; traces must be treated as read-only.
func Traces(name string, cfg RunConfig) (TraceSet, error) {
	key := cacheKey{name, cfg}
	cacheMu.Lock()
	e, ok := traceCache[key]
	if ok {
		cacheMu.Unlock()
		cacheHits.Add(1)
		<-e.ready
		return e.ts, e.err
	}
	e = &cacheEntry{ready: make(chan struct{})}
	traceCache[key] = e
	cacheMu.Unlock()
	cacheMisses.Add(1)
	e.ts, e.err = simulate(name, cfg)
	close(e.ready)
	return e.ts, e.err
}

// simulate produces a TraceSet, consulting the persistent disk cache when
// one is configured. It runs inside the single-flight leader, so for any
// (workload, config) at most one goroutine touches the disk entry at a
// time within this process; cross-process safety comes from the cache's
// atomic rename-on-write.
func simulate(name string, cfg RunConfig) (TraceSet, error) {
	w, err := ByName(name)
	if err != nil {
		return TraceSet{}, err
	}
	dir := TraceCacheDir()
	if dir == "" {
		return Run(w, cfg)
	}
	key := traceCacheKey(w, cpu.DefaultConfig(), cfg)
	path := traceCachePath(dir, key)
	ts, lerr := loadTraceSet(path, name)
	if lerr == nil {
		diskHits.Add(1)
		return ts, nil
	}
	diskMisses.Add(1)
	if !notExist(lerr) {
		// The file exists but is stale, torn, or corrupt: fall back to
		// re-simulation (which will overwrite it with a good copy).
		diskErrors.Add(1)
	}
	ts, err = Run(w, cfg)
	if err == nil {
		if serr := storeTraceSet(dir, key, ts); serr != nil {
			diskErrors.Add(1)
		}
	}
	return ts, err
}

// TraceCacheStats reports the in-memory cache's counters: hits counts
// calls served from a memoized or in-flight simulation, misses counts
// simulations actually started. After any burst of concurrent Traces
// calls for one key, misses increases by exactly 1.
func TraceCacheStats() (hits, misses uint64) {
	return cacheHits.Load(), cacheMisses.Load()
}

// CacheStats is a full accounting of both trace cache layers.
type CacheStats struct {
	// MemHits and MemMisses count the in-process memoization layer
	// (same meaning as TraceCacheStats).
	MemHits, MemMisses uint64
	// DiskHits and DiskMisses count persistent-cache lookups; they stay
	// zero while no cache directory is configured. Every memory miss
	// becomes exactly one disk hit or miss when the disk layer is on.
	DiskHits, DiskMisses uint64
	// DiskErrors counts cache files that existed but could not be
	// trusted (stale format, corruption) plus failed writes; each such
	// event fell back to re-simulation, never to a wrong answer.
	DiskErrors uint64
}

// Stats reports both cache layers' counters.
func Stats() CacheStats {
	return CacheStats{
		MemHits:    cacheHits.Load(),
		MemMisses:  cacheMisses.Load(),
		DiskHits:   diskHits.Load(),
		DiskMisses: diskMisses.Load(),
		DiskErrors: diskErrors.Load(),
	}
}

// ClearTraceCache drops all memoized traces and resets every counter,
// including the disk layer's (for tests and tools that sweep many
// configurations). On-disk cache files are kept — they are content
// addressed, so they stay valid across runs. In-flight simulations
// complete and are delivered to their waiters, but their results are no
// longer cached for later callers.
func ClearTraceCache() {
	cacheMu.Lock()
	traceCache = map[cacheKey]*cacheEntry{}
	cacheMu.Unlock()
	cacheHits.Store(0)
	cacheMisses.Store(0)
	diskHits.Store(0)
	diskMisses.Store(0)
	diskErrors.Store(0)
}
