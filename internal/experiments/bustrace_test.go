package experiments

import (
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"buspower/internal/workload"
)

// TestBusTraceMatchesUncachedRun: for every workload, the streams the
// evaluation path reads through busTrace (the address bus decoded from
// its packed form) equal a plain simulation that bypasses the trace
// cache, both when the cache simulated them and when it loaded them from
// a disk cache file, mapped where the platform maps.
func TestBusTraceMatchesUncachedRun(t *testing.T) {
	cfg := QuickConfig()
	prev, err := workload.SetTraceCacheDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	workload.ClearTraceCache()
	t.Cleanup(func() {
		workload.SetTraceCacheDir(prev)
		workload.ClearTraceCache()
	})

	want := map[string]map[string][]uint32{}
	for _, w := range workload.All() {
		ts, err := workload.Run(w, cfg.Run)
		if err != nil {
			t.Fatal(err)
		}
		narrow := func(vals []uint64) []uint32 {
			out := make([]uint32, len(vals))
			for i, v := range vals {
				out[i] = uint32(v)
			}
			return out
		}
		want[w.Name] = map[string][]uint32{"reg": narrow(ts.Reg), "mem": narrow(ts.Mem), "addr": narrow(ts.Addr)}
	}
	mapping := (runtime.GOOS == "linux" || runtime.GOOS == "darwin") && binary.NativeEndian.Uint16([]byte{1, 0}) == 1
	for _, pass := range []string{"cold", "disk"} {
		workload.ClearTraceCache()
		for name, buses := range want {
			for bus, vals := range buses {
				got, err := busTrace(name, bus, cfg.Run)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, vals) {
					t.Errorf("%s: %s/%s differs from the uncached run", pass, name, bus)
				}
			}
		}
		s := workload.Stats()
		n := uint64(len(want))
		if pass == "cold" && (s.DiskMisses != n || s.MappedBytes != 0) {
			t.Errorf("cold: %+v, want %d disk misses and nothing mapped", s, n)
		}
		if pass == "disk" && (s.DiskHits != n || s.DiskErrors != 0 || (mapping && s.MappedBytes != s.ResidentBytes)) {
			t.Errorf("disk: %+v, want %d disk hits, all mapped", s, n)
		}
	}
}
