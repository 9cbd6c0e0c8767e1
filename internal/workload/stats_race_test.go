package workload

import (
	"sync"
	"testing"
)

// TestStatsReadableDuringTraces is the -race regression test for the
// cache-stats reporting path: Stats must be safely readable while
// simulations and cache lookups are in flight — the serve /metrics
// endpoint scrapes it continuously under load, and the -v
// reporting path reads them while late experiment goroutines may still
// be touching the cache.
func TestStatsReadableDuringTraces(t *testing.T) {
	ClearTraceCache()
	cfg := RunConfig{MaxInstructions: 20_000, MaxBusValues: 2_000}
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cs := Stats()
				h := Stats().MemHits
				// Counters are monotone: a snapshot taken later can only
				// be >= one taken earlier.
				if h < cs.MemHits {
					t.Errorf("hits went backwards: %d then %d", cs.MemHits, h)
					return
				}
			}
		}()
	}
	names := []string{"li", "compress", "go"}
	var workers sync.WaitGroup
	for w := 0; w < 6; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 4; i++ {
				if _, err := Traces(names[(w+i)%len(names)], cfg); err != nil {
					t.Errorf("Traces: %v", err)
					return
				}
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	scrapes.Wait()
	s := Stats()
	if s.MemMisses != uint64(len(names)) {
		t.Errorf("misses %d, want exactly %d (one per distinct workload)", s.MemMisses, len(names))
	}
	if s.MemHits+s.MemMisses != 6*4 {
		t.Errorf("hits %d + misses %d != %d calls", s.MemHits, s.MemMisses, 6*4)
	}
}
