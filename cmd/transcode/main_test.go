package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"buspower/internal/trace"
	"buspower/internal/workload"
)

// writeFile writes c to a fresh file and returns its path.
func writeFile(t *testing.T, c *trace.Container) string {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.trc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// oneSection is a trace file as tracegen writes it.
func oneSection(label, bus string, vals []uint32) *trace.Container {
	return &trace.Container{Name: label, Sections: []trace.Section{{Name: bus, Width: 32, Values: vals}}}
}

// TestReadTraceRoundTrip: a trace file in tracegen's layout reads back
// with its label and values, including an empty trace.
func TestReadTraceRoundTrip(t *testing.T) {
	for _, vals := range [][]uint32{{1, 2, 3, 0xFFFFFFFF, 0}, {}} {
		label, got, err := readTrace(writeFile(t, oneSection("gcc/reg", "reg", vals)))
		if err != nil {
			t.Fatal(err)
		}
		if label != "gcc/reg" || !slices.Equal(got, vals) {
			t.Errorf("read %q %v, want %q %v", label, got, "gcc/reg", vals)
		}
	}
}

// TestReadTraceRejectsGarbage: a file that is no container, an empty one
// and one of the retired BUSTRC01 format are rejected as bad containers.
func TestReadTraceRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	for i, data := range []string{"not a trace file at all", "", "BUSTRC01\x07\x00gcc/reg"} {
		path := filepath.Join(dir, string(rune('a'+i)))
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readTrace(path); !errors.Is(err, trace.ErrContainerFormat) {
			t.Errorf("%q: error %v, want a container format error", data, err)
		}
	}
	if _, _, err := readTrace(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: error %v", err)
	}
}

// TestReadTraceRejectsTruncation: a trace file cut short, or with one
// value flipped, fails the parser's size or checksum check.
func TestReadTraceRejectsTruncation(t *testing.T) {
	path := writeFile(t, oneSection("x", "reg", []uint32{1, 2, 3, 4}))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := slices.Clone(data)
	flipped[len(flipped)-12] ^= 1 // inside the last value
	for name, bad := range map[string][]byte{"truncated": data[:len(data)-5], "flipped": flipped} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readTrace(path); !errors.Is(err, trace.ErrContainerFormat) {
			t.Errorf("%s: error %v, want a container format error", name, err)
		}
	}
}

// TestReadTraceWantsOneSection: a container with no section or several
// (a disk trace cache entry holds three) is not a trace file.
func TestReadTraceWantsOneSection(t *testing.T) {
	sec := trace.Section{Name: "reg", Width: 32, Values: []uint32{1}}
	for _, secs := range [][]trace.Section{nil, {sec, sec}} {
		_, _, err := readTrace(writeFile(t, &trace.Container{Name: "x", Sections: secs}))
		if err == nil || !strings.Contains(err.Error(), "want the one a trace file holds") {
			t.Errorf("%d sections: error %v", len(secs), err)
		}
	}
	packed := trace.PackDeltas([]uint32{5, 6, 7})
	_, _, err := readTrace(writeFile(t, &trace.Container{Name: "x", Sections: []trace.Section{{Name: "addr", Width: 32, Packed: &packed}}}))
	if err == nil || !strings.Contains(err.Error(), "packed") {
		t.Errorf("packed section: error %v", err)
	}
}

// TestLoadRejectsUnknownBus: -bus takes reg or mem only, and a bad value
// fails before anything is simulated.
func TestLoadRejectsUnknownBus(t *testing.T) {
	before := workload.Stats()
	for _, bus := range []string{"bogus", "addr", ""} {
		_, _, err := load("", "li", bus, workload.RunConfig{MaxInstructions: 1000, MaxBusValues: 100})
		if err == nil || err.Error() != `invalid -bus "`+bus+`" (want reg or mem)` {
			t.Errorf("-bus %q: error %v", bus, err)
		}
	}
	if after := workload.Stats(); after.MemHits+after.MemMisses != before.MemHits+before.MemMisses {
		t.Error("a rejected -bus reached the trace cache")
	}
}
