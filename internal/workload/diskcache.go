package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"buspower/internal/cpu"
	"buspower/internal/trace"
)

// The persistent trace cache: trace extraction is deterministic in
// (program, cpu.Config, RunConfig), so its output is a reusable artifact.
// Each run's traces are stored as one BUSTRC05 container in a
// content-addressed file — the name is a hash of everything the
// simulation depends on — which makes invalidation automatic: any change
// to the workload source, the core configuration, the run bounds, or the
// container format produces a different key, and stale files are never
// opened again; each store deletes the entries an older (or newer)
// container format left behind. Corrupt or foreign files fail the
// container checksum/magic checks and fall back to re-simulation. The
// key does not hash the simulator's code: a change to internal/cpu that
// moves a trace must be checked with the disk cache off.
//
// The container holds the run as the memory layer does: the data buses
// as plain 32-bit sections, the address bus as a packed one. A disk hit
// maps its entry (loadTraces), so its traces live in the page cache,
// outside the Go heap; a miss keeps the simulator's heap copy. A
// cache file is only ever replaced by rename. Writing into one in place
// under a running process is unsupported: it changes the traces already
// served from the file, and truncating it makes reading the lost pages
// fault.

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

// loadTraces reads a cached run. A fs.ErrNotExist error means a plain
// miss; any other error means the file exists but cannot be trusted
// (stale format, torn write, corruption) and the caller should
// re-simulate. mapped reports whether the streams view a read-only
// mapping of the file rather than heap copies (see trace.MapContainer).
// Every call maps the file anew and a mapping is never unmapped, since a
// trace handed out may still point into it: a load repeated after
// ClearTraceCache holds the file twice.
func loadTraces(path, name string) (tr ResidentTraces, mapped bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return ResidentTraces{}, false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return ResidentTraces{}, false, err
	}
	c, mapped, err := trace.MapContainer(f, st.Size())
	if err != nil {
		return ResidentTraces{}, false, err
	}
	if c.Name != name {
		return ResidentTraces{}, false, fmt.Errorf("workload: cache entry names %q, want %q", c.Name, name)
	}
	if err := json.Unmarshal(c.Meta, &tr.RunStats); err != nil {
		return ResidentTraces{}, false, fmt.Errorf("workload: cache summary: %w", err)
	}
	// The streams come from the sections, in the form the trace cache
	// keeps them: the data buses plain, the address bus packed.
	for _, want := range []struct {
		name string
		dst  *[]uint32
	}{{"reg", &tr.Reg}, {"mem", &tr.Mem}} {
		s, ok := c.SectionByName(want.name)
		if !ok || s.Packed != nil {
			return ResidentTraces{}, false, fmt.Errorf("workload: cache entry has no plain %s section", want.name)
		}
		*want.dst = s.Values
	}
	s, ok := c.SectionByName("addr")
	if !ok || s.Packed == nil {
		return ResidentTraces{}, false, errors.New("workload: cache entry has no packed addr section")
	}
	tr.addr = *s.Packed
	if len(tr.Reg) == 0 {
		return ResidentTraces{}, false, errors.New("workload: cache entry has empty register trace")
	}
	return tr, mapped, nil
}

// storeTraces writes a run's traces to their content address atomically:
// the container goes to a temp file in the same directory and is renamed
// into place, so concurrent readers and writers (including other
// processes) only ever observe complete files, and a file another
// process has mapped keeps its bytes.
func storeTraces(dir, key, name string, tr ResidentTraces) error {
	// The streams go into the sections; the JSON summary blob holds the
	// run statistics only.
	meta, err := json.Marshal(tr.RunStats)
	if err != nil {
		return err
	}
	c := &trace.Container{
		Name: name,
		Meta: meta,
		Sections: []trace.Section{
			{Name: "reg", Width: busWidthBits, Values: tr.Reg},
			{Name: "mem", Width: busWidthBits, Values: tr.Mem},
			{Name: "addr", Width: busWidthBits, Packed: &tr.addr},
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
	if err := os.Rename(tmp.Name(), traceCachePath(dir, key)); err != nil {
		return err
	}
	pruneStale(dir)
	return nil
}

// pruneStale deletes the cache entries of other container formats: files
// named like an entry (<32 hex digits>.trc) whose magic is not
// trace.ContainerVersion. The format is hashed into every key, so this
// build never opens them again. Temp files and foreign names stay, and
// failures are ignored: another process may be pruning the same
// directory.
func pruneStale(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		key, ok := strings.CutSuffix(e.Name(), ".trc")
		if !ok || len(key) != 32 || !e.Type().IsRegular() {
			continue
		}
		if _, err := hex.DecodeString(key); err != nil {
			continue
		}
		if path := filepath.Join(dir, e.Name()); staleFormat(path) {
			os.Remove(path)
		}
	}
}

// staleFormat reports whether the file at path does not start with this
// build's container magic. A file that cannot be opened is not judged.
func staleFormat(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var m [len(trace.ContainerVersion)]byte
	_, err = io.ReadFull(f, m[:])
	return err != nil || string(m[:]) != trace.ContainerVersion
}

// notExist reports whether err is a plain missing-file error.
func notExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
