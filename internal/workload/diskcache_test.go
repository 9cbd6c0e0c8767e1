package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"buspower/internal/cpu"
	"buspower/internal/trace"
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

// TestContainerRoundTripsSimulatedRun: a full-length simulated run stored
// as a BUSTRC05 container decodes to exactly the simulator's output —
// every 32-bit beat of the data buses, the packed address bus byte for
// byte, and every summary statistic — and the file holds 4 bytes per data
// beat plus the packed address bytes.
func TestContainerRoundTripsSimulatedRun(t *testing.T) {
	dir := t.TempDir()
	w, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	want, err := run(w, DefaultRunConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := storeTraces(dir, "k", w.Name, want); err != nil {
		t.Fatal(err)
	}
	got, _, err := loadTraces(traceCachePath(dir, "k"), w.Name)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("BUSTRC05 round trip changed the simulated run")
	}
	info, err := os.Stat(traceCachePath(dir, "k"))
	if err != nil {
		t.Fatal(err)
	}
	if n := int64(want.bytes()); info.Size() < n || info.Size() > n+4096 {
		t.Errorf("container of %d stream bytes is %d bytes, want the streams plus a header", n, info.Size())
	}
}

// replaceFile swaps data in at path the way the cache itself replaces an
// entry: a fresh file renamed over the old one. Truncating an entry in
// place under a running process is unsupported (a mapping of it would
// fault on the lost pages).
func replaceFile(t *testing.T, path string, data []byte) {
	t.Helper()
	tmp := path + ".replacement"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// writeInPlace writes data over the start of the file at path without
// truncating it, as a stray writer would.
func writeInPlace(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// resum rewrites a container's trailing FNV-1a checksum to match its
// body, so a planted fault gets past the checksum to the format checks.
func resum(d []byte) []byte {
	sum := fnv.New64a()
	sum.Write(d[8 : len(d)-8])
	binary.LittleEndian.PutUint64(d[len(d)-8:], sum.Sum64())
	return d
}

// headerLayout walks a container's header: countAt is the offset of its
// section count, and end the end of its section table, where the padding
// before the values starts.
func headerLayout(d []byte) (countAt, end int) {
	countAt, end, _ = sectionLayout(d, "")
	return countAt, end
}

// sectionLayout is headerLayout that also locates the named section: the
// offset of its count field (its size field follows) and of its values.
func sectionLayout(d []byte, name string) (countAt, end int, sec struct{ countAt, dataAt, size int }) {
	le := binary.LittleEndian
	off := 8
	off += 2 + int(le.Uint16(d[off:])) // name
	off += 4 + int(le.Uint32(d[off:])) // meta
	countAt = off
	off += 2
	data := 0 // the named section's values, from the start of the values
	for i := 0; i < int(le.Uint16(d[countAt:])); i++ {
		n := int(le.Uint16(d[off:]))
		secName := string(d[off+2 : off+2+n])
		off += 2 + n + 2 + 2 // name, width, coding
		size := int(le.Uint64(d[off+8:]))
		if secName == name {
			sec.countAt, sec.dataAt, sec.size = off, data, size
		}
		data += size + (-size & 3)
		off += 8 + 8 // count, size
	}
	sec.dataAt += off + (-off & 3)
	return countAt, off, sec
}

// packedAddrFault plants a fault in the packed addr section of a cache
// file under a valid checksum: edit gets the section's values and count.
func packedAddrFault(edit func(vals []byte, count *uint64)) func([]byte) []byte {
	return func(d []byte) []byte {
		_, _, sec := sectionLayout(d, "addr")
		count := binary.LittleEndian.Uint64(d[sec.countAt:])
		edit(d[sec.dataAt:sec.dataAt+sec.size], &count)
		binary.LittleEndian.PutUint64(d[sec.countAt:], count)
		return resum(d)
	}
}

// TestDiskCacheCorruptFileFallsBack injects faults into a cache file: a
// flipped payload bit (once in a replacement file, once written into the
// file in place), a torn write cut to half its length, a zero-length
// file, values shifted off their 4-byte alignment, a non-zero padding
// byte, a stale BUSTRC03 copy of the entry, a section table that overruns
// the file, and four malformed packed address sections (a truncated last
// varint, a varint over 5 bytes, bytes after the declared count, fewer
// values than declared), the last eight under a valid checksum. Each must
// be rejected as a counted disk error, re-simulated to the same TraceSet,
// and repaired on disk, never served as a wrong answer.
func TestDiskCacheCorruptFileFallsBack(t *testing.T) {
	flip := func(d []byte) []byte { d[len(d)/2] ^= 0x40; return d }
	for _, c := range []struct {
		name    string
		corrupt func([]byte) []byte
		inPlace bool // write the same-size corrupt bytes over the file
	}{
		{"bit flip", flip, false},
		{"bit flip in place", flip, true},
		{"truncated to half", func(d []byte) []byte { return d[:len(d)/2] }, false},
		{"zero length", func([]byte) []byte { return nil }, false},
		{"misaligned values", func(d []byte) []byte {
			_, h := headerLayout(d)
			return resum(append(append(d[:h:h], 0), d[h:]...))
		}, false},
		{"non-zero padding", func(d []byte) []byte {
			// Pad the summary with JSON whitespace until the header needs
			// padding, then set the last padding byte.
			c, err := trace.ParseContainer(d)
			if err != nil {
				panic(err)
			}
			for {
				var buf bytes.Buffer
				if err := c.Write(&buf); err != nil {
					panic(err)
				}
				out := buf.Bytes()
				if _, h := headerLayout(out); h%4 != 0 {
					out[h+(-h&3)-1] = 0x80
					return resum(out)
				}
				c.Meta = append(c.Meta, ' ')
			}
		}, false},
		{"stale BUSTRC03", func(d []byte) []byte {
			_, h := headerLayout(d)
			pad := -h & 3
			copy(d, "BUSTRC03")
			return resum(append(d[:h:h], d[h+pad:]...))
		}, false},
		{"section table overruns", func(d []byte) []byte {
			countAt, _ := headerLayout(d)
			binary.LittleEndian.PutUint16(d[countAt:], 64)
			return resum(d)
		}, false},
		{"packed truncated last varint", packedAddrFault(func(vals []byte, _ *uint64) {
			vals[len(vals)-1] |= 0x80
		}), false},
		{"packed varint over 5 bytes", packedAddrFault(func(vals []byte, _ *uint64) {
			for i := range vals[:5] {
				vals[i] |= 0x80
			}
		}), false},
		{"packed trailing bytes", packedAddrFault(func(_ []byte, count *uint64) { *count-- }), false},
		{"packed fewer values", packedAddrFault(func(_ []byte, count *uint64) { *count++ }), false},
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
			bad := c.corrupt(data)
			_, err = trace.ParseContainer(bad)
			if !errors.Is(err, trace.ErrContainerFormat) {
				t.Fatalf("planted fault parses with error %v, want ErrContainerFormat", err)
			}
			if strings.HasPrefix(c.name, "packed") && !strings.Contains(err.Error(), "section addr: trace: ") {
				t.Fatalf("planted fault fails outside the packed section's decode walk: %v", err)
			}
			if c.inPlace {
				writeInPlace(t, path, bad)
			} else {
				replaceFile(t, path, bad)
			}

			// The container checks must reject the file and the runner
			// must silently re-simulate (and overwrite with a good copy).
			ClearTraceCache()
			got, err := Traces("li", diskTestCfg)
			if err != nil {
				t.Fatal(err)
			}
			if s := Stats(); s.DiskErrors != 1 || s.DiskHits != 0 {
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
// a non-empty directory at the entry's path makes storeTraces's rename
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

// TestStoreTracesPrunesStaleFormats: a store deletes the entries of older
// container formats (planted BUSTRC02, BUSTRC03 and BUSTRC04 files under
// key-shaped names) and leaves current entries, temp files and foreign names alone.
func TestStoreTracesPrunesStaleFormats(t *testing.T) {
	dir := t.TempDir()
	w, err := ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := run(w, diskTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	const (
		current = "0123456789abcdef0123456789abcdef"
		stale   = "fedcba9876543210fedcba9876543210"
		stale3  = "ffeeddccbbaa99887766554433221100"
		stale4  = "0f1e2d3c4b5a69788796a5b4c3d2e1f0"
		fresh   = "00112233445566778899aabbccddeeff"
	)
	if err := storeTraces(dir, current, w.Name, tr); err != nil {
		t.Fatal(err)
	}
	planted := map[string]string{
		stale + ".trc":            "BUSTRC02 an entry of an older format",
		stale3 + ".trc":           "BUSTRC03 an entry of an older format",
		stale4 + ".trc":           "BUSTRC04 an entry of the previous format",
		"notes.trc":               "BUSTRC02 a foreign name",
		stale + ".tmp-12345":      "BUSTRC02 a temp file",
		stale[:31] + "g" + ".trc": "BUSTRC02 not a hex key",
	}
	for name, body := range planted {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if err := storeTraces(dir, fresh, w.Name, tr); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{stale, stale3, stale4} {
		if _, err := os.Stat(filepath.Join(dir, key+".trc")); !os.IsNotExist(err) {
			t.Errorf("stale entry %s survived the store: %v", key, err)
		}
	}
	for _, key := range []string{current, fresh} {
		if _, _, err := loadTraces(traceCachePath(dir, key), w.Name); err != nil {
			t.Errorf("current entry %s: %v", key, err)
		}
	}
	for name := range planted {
		if name == stale+".trc" || name == stale3+".trc" || name == stale4+".trc" {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s was removed: %v", name, err)
		}
	}
}

// TestDiskCacheConcurrentLoads loads disk-cached runs from several
// goroutines while others clear the memory layer, so single-flight
// leaders of one key can overlap and map the same file at once. Every
// load must return the simulated streams, and no load may fail or be
// counted as a disk error.
func TestDiskCacheConcurrentLoads(t *testing.T) {
	withTraceCacheDir(t)
	names := []string{"li", "gcc", "swim"}
	want := map[string][]uint32{}
	for _, name := range names {
		tr, err := Resident(name, diskTestCfg)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = slices.Clone(tr.Reg)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if (g+i)%3 == 0 {
					ClearTraceCache()
				}
				name := names[(g+i)%len(names)]
				tr, err := Resident(name, diskTestCfg)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(tr.Reg, want[name]) {
					t.Errorf("%s: loaded streams differ from the simulated ones", name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := Stats(); s.DiskErrors != 0 || s.DiskMisses != 0 {
		t.Fatalf("concurrent loads: %+v, want every lookup a disk hit", s)
	}
}
