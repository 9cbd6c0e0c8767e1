//go:build unix

package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"
)

// writeContainerFile writes c to path and returns its bytes.
func writeContainerFile(t *testing.T, path string, c *Container) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mapContainerFile maps the container file at path and requires the
// sections to view the mapping on a little-endian host.
func mapContainerFile(t *testing.T, path string) *Container {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	c, mapped, err := MapContainer(f, st.Size())
	if err != nil {
		t.Fatal(err)
	}
	if mapped != littleEndian {
		t.Fatalf("mapped %v on a host with littleEndian %v", mapped, littleEndian)
	}
	return c
}

// TestMapContainerWriteFaults: mapped sections are read-only, so a write
// through one faults instead of corrupting the shared trace.
func TestMapContainerWriteFaults(t *testing.T) {
	if !littleEndian {
		t.Skip("sections are heap copies on a big-endian host")
	}
	path := filepath.Join(t.TempDir(), "c.trc")
	writeContainerFile(t, path, randomContainer(4))
	c := mapContainerFile(t, path)
	vals := c.Sections[0].Values
	if len(vals) == 0 {
		t.Fatal("empty first section")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	faulted := func() (faulted bool) {
		defer func() { faulted = recover() != nil }()
		vals[0] ^= 1
		return false
	}()
	if !faulted {
		t.Fatal("a write into a mapped section did not fault")
	}
}

// TestMapContainerSurvivesUnlinkAndRename: a mapping keeps its file's
// bytes after the file is unlinked, and after another file is renamed
// over its path, which is how the trace cache replaces entries.
func TestMapContainerSurvivesUnlinkAndRename(t *testing.T) {
	dir := t.TempDir()
	orig, other := randomContainer(8), randomContainer(9)

	unlinked := filepath.Join(dir, "unlinked.trc")
	writeContainerFile(t, unlinked, orig)
	c := mapContainerFile(t, unlinked)
	if err := os.Remove(unlinked); err != nil {
		t.Fatal(err)
	}
	if !sectionsEqual(c, orig) {
		t.Fatal("unlinking the file changed its mapped sections")
	}

	replaced := filepath.Join(dir, "replaced.trc")
	writeContainerFile(t, replaced, orig)
	c = mapContainerFile(t, replaced)
	tmp := filepath.Join(dir, "replaced.tmp")
	writeContainerFile(t, tmp, other)
	if err := os.Rename(tmp, replaced); err != nil {
		t.Fatal(err)
	}
	if !sectionsEqual(c, orig) {
		t.Fatal("renaming a file over the path changed the old mapped sections")
	}
	if !sectionsEqual(mapContainerFile(t, replaced), other) {
		t.Fatal("mapping the path again does not read the new file")
	}
}

// TestMapContainerReadsWhatCannotBeMapped: a file that refuses mmap (here
// a pipe) is read into heap sections instead of failing.
func TestMapContainerReadsWhatCannotBeMapped(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := randomContainer(5)
	var buf bytes.Buffer
	if err := want.Write(&buf); err != nil {
		t.Fatal(err)
	}
	go func() {
		w.Write(buf.Bytes())
		w.Close()
	}()
	c, mapped, err := MapContainer(r, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if mapped {
		t.Fatal("a pipe's sections claim to view a mapping")
	}
	if !sectionsEqual(c, want) {
		t.Fatal("reading the pipe changed the sections")
	}
}
