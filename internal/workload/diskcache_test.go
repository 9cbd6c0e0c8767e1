package workload

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"buspower/internal/cpu"
)

// withTraceCacheDir points the disk cache at a temp directory for the
// test's duration and resets all cache state around it. These tests
// mutate package-global cache configuration, so they must not run in
// parallel with each other.
func withTraceCacheDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	prev, err := SetTraceCacheDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ClearTraceCache()
	t.Cleanup(func() {
		SetTraceCacheDir(prev)
		ClearTraceCache()
	})
	return dir
}

func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.trc"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

var diskTestCfg = RunConfig{MaxInstructions: 60_000, MaxBusValues: 5_000}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := withTraceCacheDir(t)

	first, err := Traces("li", diskTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	s := Stats()
	if s.DiskHits != 0 || s.DiskMisses != 1 || s.DiskErrors != 0 {
		t.Fatalf("after cold run: %+v", s)
	}
	files := cacheFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("expected 1 cache file, found %v", files)
	}

	// Drop the in-memory layer; the second call must be served from disk
	// and reproduce the simulated TraceSet exactly, summary included.
	ClearTraceCache()
	second, err := Traces("li", diskTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	s = Stats()
	if s.DiskHits != 1 || s.DiskMisses != 0 || s.DiskErrors != 0 {
		t.Fatalf("after warm run: %+v", s)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("disk-loaded TraceSet differs from the simulated one")
	}
}

// TestDiskCacheCorruptFileFallsBack injects faults into a cache file: a
// flipped payload bit, a torn write cut to half its length, and a
// zero-length file. Each must be rejected, re-simulated to the same
// TraceSet, and repaired on disk, never served as a wrong answer.
func TestDiskCacheCorruptFileFallsBack(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"bit flip", func(d []byte) []byte { d[len(d)/2] ^= 0x40; return d }},
		{"truncated to half", func(d []byte) []byte { return d[:len(d)/2] }},
		{"zero length", func([]byte) []byte { return nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := withTraceCacheDir(t)
			want, err := Traces("li", diskTestCfg)
			if err != nil {
				t.Fatal(err)
			}
			path := cacheFiles(t, dir)[0]
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			// The container checks must reject the file and the runner
			// must silently re-simulate (and overwrite with a good copy).
			ClearTraceCache()
			got, err := Traces("li", diskTestCfg)
			if err != nil {
				t.Fatal(err)
			}
			if s := Stats(); s.DiskErrors == 0 || s.DiskHits != 0 {
				t.Fatalf("corruption not detected: %+v", s)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatal("fallback re-simulation produced a different TraceSet")
			}

			// The bad file was repaired: a third cold pass hits disk again.
			ClearTraceCache()
			again, err := Traces("li", diskTestCfg)
			if err != nil {
				t.Fatal(err)
			}
			if s := Stats(); s.DiskHits != 1 || s.DiskErrors != 0 {
				t.Fatalf("repaired entry not reused: %+v", s)
			}
			if !reflect.DeepEqual(want, again) {
				t.Fatal("repaired entry loads a different TraceSet")
			}
		})
	}
}

// TestDiskCacheWriteFailureFallsBack injects a fault into the cache write:
// a non-empty directory at the entry's path makes storeTraceSet's rename
// fail. The caller must still get the simulated traces, the failure must
// be counted, no temp file may be left behind, and a later call must
// simulate again instead of reading anything partial.
func TestDiskCacheWriteFailureFallsBack(t *testing.T) {
	dir := withTraceCacheDir(t)
	if _, err := SetTraceCacheDir(""); err != nil {
		t.Fatal(err)
	}
	want, err := Traces("li", diskTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SetTraceCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	w, err := ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	path := traceCachePath(dir, traceCacheKey(w, cpu.DefaultConfig(), diskTestCfg))
	if err := os.MkdirAll(filepath.Join(path, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}

	for pass := 1; pass <= 2; pass++ {
		ClearTraceCache()
		got, err := Traces("li", diskTestCfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("pass %d: traces differ from a run without the disk cache", pass)
		}
		// The blocked entry can be neither read nor replaced: one error
		// for the unreadable entry, one for the failed write.
		if s := Stats(); s.MemMisses != 1 || s.DiskHits != 0 || s.DiskMisses != 1 || s.DiskErrors != 2 {
			t.Fatalf("pass %d: %+v, want one disk miss with a read and a write error", pass, s)
		}
		tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(tmps) != 0 {
			t.Fatalf("pass %d: temp files left behind: %v", pass, tmps)
		}
	}
}

func TestDiskCacheStaleVersionIgnored(t *testing.T) {
	dir := withTraceCacheDir(t)
	if _, err := Traces("li", diskTestCfg); err != nil {
		t.Fatal(err)
	}
	path := cacheFiles(t, dir)[0]

	// Simulate a file from an older format: BUSTRC01 magic with junk.
	if err := os.WriteFile(path, []byte("BUSTRC01 leftover from an old build"), 0o644); err != nil {
		t.Fatal(err)
	}
	ClearTraceCache()
	if _, err := Traces("li", diskTestCfg); err != nil {
		t.Fatal(err)
	}
	s := Stats()
	if s.DiskHits != 0 || s.DiskErrors == 0 {
		t.Fatalf("stale-version file not treated as invalid: %+v", s)
	}
}

func TestDiskCacheKeySensitivity(t *testing.T) {
	dir := withTraceCacheDir(t)
	if _, err := Traces("li", diskTestCfg); err != nil {
		t.Fatal(err)
	}
	// A different run bound is a different simulation: new file.
	other := diskTestCfg
	other.MaxInstructions += 1
	if _, err := Traces("li", other); err != nil {
		t.Fatal(err)
	}
	// A different workload too.
	if _, err := Traces("gcc", diskTestCfg); err != nil {
		t.Fatal(err)
	}
	if files := cacheFiles(t, dir); len(files) != 3 {
		t.Fatalf("expected 3 distinct cache files, found %d", len(files))
	}
}

func TestDiskCacheKeyCoversConfig(t *testing.T) {
	w, err := ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	base := traceCacheKey(w, cpu.DefaultConfig(), diskTestCfg)
	altCfg := cpu.DefaultConfig()
	altCfg.RUUSize *= 2
	if traceCacheKey(w, altCfg, diskTestCfg) == base {
		t.Error("cpu.Config change did not change the cache key")
	}
	altW := w
	altW.Source += "\n"
	if traceCacheKey(altW, cpu.DefaultConfig(), diskTestCfg) == base {
		t.Error("program text change did not change the cache key")
	}
}

func TestDiskCacheDisabledByDefault(t *testing.T) {
	// With no directory configured, Traces must not touch the disk
	// counters at all.
	prev, err := SetTraceCacheDir("")
	if err != nil {
		t.Fatal(err)
	}
	ClearTraceCache()
	t.Cleanup(func() {
		SetTraceCacheDir(prev)
		ClearTraceCache()
	})
	if _, err := Traces("li", diskTestCfg); err != nil {
		t.Fatal(err)
	}
	s := Stats()
	if s.DiskHits != 0 || s.DiskMisses != 0 || s.DiskErrors != 0 {
		t.Fatalf("disk layer active while disabled: %+v", s)
	}
}
