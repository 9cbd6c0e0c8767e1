package workload

import (
	"sync"
	"testing"
)

// Single-flight contract: 16 goroutines racing on the same (workload,
// config) key must trigger exactly one simulation; everyone shares the
// winner's resident backing arrays. Run under -race this also stresses
// the cache's synchronization.
func TestTracesSingleFlight(t *testing.T) {
	ClearTraceCache()
	defer ClearTraceCache()
	cfg := RunConfig{MaxInstructions: 50_000, MaxBusValues: 5_000}
	const callers = 16
	results := make([]ResidentTraces, callers)
	errs := make([]error, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait() // line everyone up on the cold cache
			results[i], errs[i] = Resident("li", cfg)
		}(i)
	}
	start.Done()
	done.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if &results[i].Reg[0] != &results[0].Reg[0] {
			t.Errorf("caller %d got a different backing array — duplicate simulation", i)
		}
	}
	st := Stats()
	hits, misses := st.MemHits, st.MemMisses
	if misses != 1 {
		t.Errorf("misses = %d, want exactly 1 simulation", misses)
	}
	if hits != callers-1 {
		t.Errorf("hits = %d, want %d", hits, callers-1)
	}
}

// Distinct keys must not serialize behind each other's in-flight
// simulation, and each must simulate exactly once.
func TestTracesConcurrentDistinctKeys(t *testing.T) {
	ClearTraceCache()
	defer ClearTraceCache()
	cfg := RunConfig{MaxInstructions: 50_000, MaxBusValues: 5_000}
	names := []string{"li", "gcc", "swim", "compress"}
	var wg sync.WaitGroup
	for _, name := range names {
		for rep := 0; rep < 4; rep++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				if _, err := Traces(name, cfg); err != nil {
					t.Error(err)
				}
			}(name)
		}
	}
	wg.Wait()
	if misses := Stats().MemMisses; misses != uint64(len(names)) {
		t.Errorf("misses = %d, want %d (one simulation per key)", misses, len(names))
	}
}

// Errors are part of the single-flight contract: a failing key is
// simulated once and its error delivered to every caller.
func TestTracesCachesErrors(t *testing.T) {
	ClearTraceCache()
	defer ClearTraceCache()
	cfg := RunConfig{MaxInstructions: 50_000, MaxBusValues: 5_000}
	if _, err := Traces("no-such-benchmark", cfg); err == nil {
		t.Fatal("unknown workload must fail")
	}
	if _, err := Traces("no-such-benchmark", cfg); err == nil {
		t.Fatal("cached lookup must repeat the failure")
	}
	if misses := Stats().MemMisses; misses != 1 {
		t.Errorf("misses = %d, want 1 (error cached)", misses)
	}
}
