package workload

import (
	"fmt"
	"sync"
	"sync/atomic"

	"buspower/internal/cpu"
	"buspower/internal/trace"
)

// TraceSet is the bus traffic extracted from one workload run, with each
// stream widened to a caller-owned []uint64 copy. It is the form tools
// outside the evaluation path take (the trace and transcode commands,
// the examples, the benchmark harness); the evaluation path reads the
// cache's 32-bit streams through Resident instead.
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
	Summary cpu.RunStats
}

// ResidentTraces is one workload run as the trace cache holds it: the
// register and memory data buses as the simulator's 32-bit streams, the
// memory address bus delta-coded (trace.Deltas, about a third of its
// 4 bytes per beat), and the run's statistics. The streams are shared
// with the cache and, after a disk hit, view a read-only file mapping:
// they must be treated as read-only.
type ResidentTraces struct {
	// Reg is the integer register-file output port value stream.
	Reg []uint32
	// Mem is the memory data bus value stream.
	Mem []uint32
	// addr is the memory address bus stream, one address per Mem beat;
	// Addr decodes it.
	addr trace.Deltas
	cpu.RunStats
}

// Addr decodes the memory address bus stream into a fresh, caller-owned
// slice, one address per Mem beat. Every packed stream is checked when it
// is made or loaded, so an error means the cache file under a mapping was
// written in place.
func (r ResidentTraces) Addr() ([]uint32, error) {
	out := make([]uint32, r.addr.Len)
	if err := r.addr.Decode(out); err != nil {
		return nil, fmt.Errorf("workload: resident address stream: %w", err)
	}
	return out, nil
}

// bytes is the size of the streams: 4 bytes per data beat plus the
// packed address bytes.
func (r ResidentTraces) bytes() uint64 {
	return 4*uint64(len(r.Reg)+len(r.Mem)) + uint64(len(r.addr.Data))
}

// widen returns a fresh 64-bit copy of vals.
func widen(vals []uint32) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = uint64(v)
	}
	return out
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
// captures its bus traffic, bypassing the trace cache and its packing:
// every stream is widened straight from the simulator's output.
func Run(w Workload, cfg RunConfig) (TraceSet, error) {
	tr, err := simulateRun(w, cfg)
	if err != nil {
		return TraceSet{}, err
	}
	return TraceSet{Workload: w.Name, Reg: widen(tr.RegisterBus), Mem: widen(tr.MemoryBus), Addr: widen(tr.MemoryAddrBus), Summary: tr.RunStats}, nil
}

// run is a simulation in the form the trace cache keeps: the address bus
// is packed as soon as the run finishes, and its plain slice dropped.
func run(w Workload, cfg RunConfig) (ResidentTraces, error) {
	tr, err := simulateRun(w, cfg)
	if err != nil {
		return ResidentTraces{}, err
	}
	return ResidentTraces{Reg: tr.RegisterBus, Mem: tr.MemoryBus, addr: trace.PackDeltas(tr.MemoryAddrBus), RunStats: tr.RunStats}, nil
}

// simulateRun runs the simulator on the workload.
func simulateRun(w Workload, cfg RunConfig) (cpu.BusTraces, error) {
	p, err := w.Program()
	if err != nil {
		return cpu.BusTraces{}, err
	}
	sim, err := cpu.NewSimulator(p, cpu.DefaultConfig())
	if err != nil {
		return cpu.BusTraces{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	tr := sim.Run(cfg.MaxInstructions, cfg.MaxBusValues)
	if len(tr.RegisterBus) == 0 {
		return cpu.BusTraces{}, fmt.Errorf("workload %s: produced no register bus traffic", w.Name)
	}
	return tr, nil
}

type cacheKey struct {
	name string
	cfg  RunConfig
}

// cacheEntry is one single-flight cache slot: the first caller to claim a
// key simulates and closes ready; everyone else blocks on ready and reads
// the stored result.
type cacheEntry struct {
	ready  chan struct{}
	tr     ResidentTraces
	mapped bool // tr's streams view a disk cache file's mapping
	err    error
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

// Resident returns the workload's bus traces as the trace cache holds
// them — the data buses as 32-bit streams, the address bus packed —
// memoized per (workload, config) so the many figure sweeps sharing a
// trace do not re-simulate. It is the evaluation path's accessor and
// copies nothing; ResidentTraces.Addr decodes the address stream into a
// fresh slice on each call.
//
// The cache is single-flight and safe for concurrent use: when N callers
// ask for the same (workload, config) at once, exactly one runs the
// simulation while the rest block until its result (or error — errors are
// deterministic here, so they are cached too) is ready. All callers share
// the same backing arrays; traces must be treated as read-only.
func Resident(name string, cfg RunConfig) (ResidentTraces, error) {
	key := cacheKey{name, cfg}
	cacheMu.Lock()
	e, ok := traceCache[key]
	if ok {
		cacheMu.Unlock()
		cacheHits.Add(1)
		<-e.ready
		return e.tr, e.err
	}
	e = &cacheEntry{ready: make(chan struct{})}
	traceCache[key] = e
	cacheMu.Unlock()
	cacheMisses.Add(1)
	e.tr, e.mapped, e.err = simulate(name, cfg)
	close(e.ready)
	return e.tr, e.err
}

// Traces returns the workload's bus traces from the same cache as
// Resident, widened into a TraceSet whose streams are fresh []uint64
// copies, made on every call. Tools outside the evaluation path use it.
func Traces(name string, cfg RunConfig) (TraceSet, error) {
	tr, err := Resident(name, cfg)
	if err != nil {
		return TraceSet{}, err
	}
	addr := make([]uint64, tr.addr.Len)
	if err := tr.addr.Decode64(addr); err != nil {
		return TraceSet{}, fmt.Errorf("workload: resident address stream: %w", err)
	}
	return TraceSet{Workload: name, Reg: widen(tr.Reg), Mem: widen(tr.Mem), Addr: addr, Summary: tr.RunStats}, nil
}

// simulate produces a run's traces, consulting the persistent disk cache
// when one is configured. It runs inside the single-flight leader, so for
// any (workload, config) at most one goroutine touches the disk entry at
// a time within this process; cross-process safety comes from the cache's
// atomic rename-on-write. The traces of a disk hit view the cache file's
// mapping (mapped is true) where the file can be mapped; a miss returns
// the simulator's heap copy.
func simulate(name string, cfg RunConfig) (tr ResidentTraces, mapped bool, err error) {
	w, err := ByName(name)
	if err != nil {
		return ResidentTraces{}, false, err
	}
	dir := TraceCacheDir()
	if dir == "" {
		tr, err = run(w, cfg)
		return tr, false, err
	}
	key := traceCacheKey(w, cpu.DefaultConfig(), cfg)
	path := traceCachePath(dir, key)
	tr, mapped, lerr := loadTraces(path, name)
	if lerr == nil {
		diskHits.Add(1)
		return tr, mapped, nil
	}
	diskMisses.Add(1)
	if !notExist(lerr) {
		// The file exists but is stale, torn, or corrupt: fall back to
		// re-simulation (which will overwrite it with a good copy).
		diskErrors.Add(1)
	}
	tr, err = run(w, cfg)
	if err == nil {
		if serr := storeTraces(dir, key, name, tr); serr != nil {
			diskErrors.Add(1)
		}
	}
	return tr, false, err
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
	// ResidentBytes is the size of the value streams the memory layer
	// holds (4 bytes per data bus beat plus the packed address bytes),
	// over its completed entries. MappedBytes is the part of it that
	// views read-only mappings of disk cache files; the rest is on the
	// Go heap.
	ResidentBytes, MappedBytes uint64
}

// Stats reports both cache layers' counters.
func Stats() CacheStats {
	s := CacheStats{
		MemHits:    cacheHits.Load(),
		MemMisses:  cacheMisses.Load(),
		DiskHits:   diskHits.Load(),
		DiskMisses: diskMisses.Load(),
		DiskErrors: diskErrors.Load(),
	}
	cacheMu.Lock()
	defer cacheMu.Unlock()
	for _, e := range traceCache {
		select {
		case <-e.ready:
			n := e.tr.bytes()
			s.ResidentBytes += n
			if e.mapped {
				s.MappedBytes += n
			}
		default: // still simulating
		}
	}
	return s
}

// ClearTraceCache drops all memoized traces and resets every counter,
// including the disk layer's (for tests and tools that sweep many
// configurations). On-disk cache files are kept — they are content
// addressed, so they stay valid across runs — and so are the mappings
// of the entries already loaded, which traces handed out may still view.
// In-flight simulations complete and are delivered to their waiters, but their results are no
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
