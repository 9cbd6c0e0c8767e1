package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"buspower/internal/cpu"
	"buspower/internal/trace"
)

// The persistent trace cache: trace extraction is deterministic in
// (program, cpu.Config, RunConfig), so its output is a reusable artifact.
// Each TraceSet is stored as one BUSTRC02 container in a
// content-addressed file — the name is a hash of everything the
// simulation depends on — which makes invalidation automatic: any change
// to the workload source, the core configuration, the run bounds, or the
// container format produces a different key, and stale files are simply
// never opened again. Corrupt or foreign files fail the container
// checksum/magic checks and fall back to re-simulation.

// traceCacheKeyVersion pins the key derivation itself. It incorporates the
// container format version, so a format bump invalidates every entry.
const traceCacheKeyVersion = trace.ContainerVersion + "/k1"

var (
	diskCacheMu  sync.RWMutex
	diskCacheDir string // "" = disabled
)

// SetTraceCacheDir enables the on-disk trace cache rooted at dir (created
// if missing), or disables it when dir is empty. Returns the previous
// directory.
func SetTraceCacheDir(dir string) (prev string, err error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", fmt.Errorf("workload: trace cache dir: %w", err)
		}
	}
	diskCacheMu.Lock()
	prev = diskCacheDir
	diskCacheDir = dir
	diskCacheMu.Unlock()
	return prev, nil
}

// TraceCacheDir returns the active on-disk cache directory ("" when the
// disk layer is disabled).
func TraceCacheDir() string {
	diskCacheMu.RLock()
	defer diskCacheMu.RUnlock()
	return diskCacheDir
}

// DefaultTraceCacheDir returns the conventional per-user cache location
// (os.UserCacheDir()/buspower/traces), or "" when no user cache dir is
// known.
func DefaultTraceCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "buspower", "traces")
}

// traceCacheKey derives the content address of one simulation: a hash of
// the key-derivation version, the workload's program text, the core
// configuration, and the run bounds. Every field is length-prefixed so
// concatenations cannot collide.
func traceCacheKey(w Workload, simCfg cpu.Config, cfg RunConfig) string {
	h := sha256.New()
	var n [8]byte
	put := func(parts ...string) {
		for _, p := range parts {
			binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
			h.Write(n[:])
			h.Write([]byte(p))
		}
	}
	put(traceCacheKeyVersion, w.Name, w.Source)
	put(fmt.Sprintf("%+v", simCfg))
	binary.LittleEndian.PutUint64(n[:], cfg.MaxInstructions)
	h.Write(n[:])
	binary.LittleEndian.PutUint64(n[:], uint64(cfg.MaxBusValues))
	h.Write(n[:])
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// traceCachePath is the file holding the TraceSet for key.
func traceCachePath(dir, key string) string {
	return filepath.Join(dir, key+".trc")
}

// busWidthBits is the recorded stream width: all three buses carry 32-bit
// beats (§4.1).
const busWidthBits = 32

// loadTraceSet reads a cached TraceSet. A fs.ErrNotExist error means a
// plain miss; any other error means the file exists but cannot be
// trusted (stale format, torn write, corruption) and the caller should
// re-simulate.
func loadTraceSet(path, name string) (TraceSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return TraceSet{}, err
	}
	defer f.Close()
	c, err := trace.ReadContainer(f)
	if err != nil {
		return TraceSet{}, err
	}
	if c.Name != name {
		return TraceSet{}, fmt.Errorf("workload: cache entry names %q, want %q", c.Name, name)
	}
	ts := TraceSet{Workload: name}
	if err := json.Unmarshal(c.Meta, &ts.Summary); err != nil {
		return TraceSet{}, fmt.Errorf("workload: cache summary: %w", err)
	}
	for _, want := range []struct {
		name string
		dst  *[]uint64
	}{{"reg", &ts.Reg}, {"mem", &ts.Mem}, {"addr", &ts.Addr}} {
		s, ok := c.SectionByName(want.name)
		if !ok {
			return TraceSet{}, fmt.Errorf("workload: cache entry missing %s section", want.name)
		}
		*want.dst = s.Values
	}
	if len(ts.Reg) == 0 {
		return TraceSet{}, errors.New("workload: cache entry has empty register trace")
	}
	// Re-point the summary's streams at the loaded sections so the
	// TraceSet is self-consistent, as Run produces it.
	ts.Summary.RegisterBus = ts.Reg
	ts.Summary.MemoryBus = ts.Mem
	ts.Summary.MemoryAddrBus = ts.Addr
	return ts, nil
}

// storeTraceSet writes the TraceSet to its content address atomically:
// the container goes to a temp file in the same directory and is renamed
// into place, so concurrent readers and writers (including other
// processes) only ever observe complete files.
func storeTraceSet(dir, key string, ts TraceSet) error {
	// The summary's stream copies are redundant with the sections; strip
	// them from the JSON blob rather than storing every value twice.
	summary := ts.Summary
	summary.RegisterBus = nil
	summary.MemoryBus = nil
	summary.MemoryAddrBus = nil
	meta, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	c := &trace.Container{
		Name: ts.Workload,
		Meta: meta,
		Sections: []trace.Section{
			{Name: "reg", Width: busWidthBits, Values: ts.Reg},
			{Name: "mem", Width: busWidthBits, Values: ts.Mem},
			{Name: "addr", Width: busWidthBits, Values: ts.Addr},
		},
	}
	tmp, err := os.CreateTemp(dir, key+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := c.Write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), traceCachePath(dir, key))
}

// notExist reports whether err is a plain missing-file error.
func notExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
