//go:build unix

package workload

import (
	"encoding/binary"
	"os"
	"runtime/debug"
	"slices"
	"testing"
)

// TestDiskCacheServesMappings: with the disk layer on, a miss hands out
// the simulator's heap copy and a hit hands out streams that view the
// cache file's read-only mapping, and Stats counts them apart. Loading
// the entry again after ClearTraceCache maps the file again, and the
// earlier mapping keeps its bytes; so does a mapping whose file is
// replaced by rename and then unlinked. A write into a mapped stream
// faults. With the disk layer off, every byte is on the heap.
func TestDiskCacheServesMappings(t *testing.T) {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Skip("a big-endian host decodes cache files into heap copies")
	}
	dir := withTraceCacheDir(t)
	check := func(pass string, wantHits uint64, wantMapped bool) ResidentTraces {
		t.Helper()
		tr, err := Resident("li", diskTestCfg)
		if err != nil {
			t.Fatal(err)
		}
		s := Stats()
		if s.DiskHits != wantHits || s.DiskErrors != 0 {
			t.Fatalf("%s: %+v, want %d disk hits", pass, s, wantHits)
		}
		if wantMapped && (s.ResidentBytes == 0 || s.MappedBytes != s.ResidentBytes) {
			t.Fatalf("%s: %d of %d resident bytes mapped, want all", pass, s.MappedBytes, s.ResidentBytes)
		}
		if !wantMapped && (s.ResidentBytes == 0 || s.MappedBytes != 0) {
			t.Fatalf("%s: %d of %d resident bytes mapped, want none", pass, s.MappedBytes, s.ResidentBytes)
		}
		return tr
	}
	want := slices.Clone(check("miss", 0, false).Reg)

	ClearTraceCache()
	first := check("hit", 1, true)
	ClearTraceCache()
	if again := check("hit again", 1, true); &again.Reg[0] == &first.Reg[0] || !slices.Equal(again.Reg, want) {
		t.Fatal("loading the entry again did not map the file anew")
	}

	path := cacheFiles(t, dir)[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	replaceFile(t, path, data)
	ClearTraceCache()
	if renewed := check("hit after rename", 1, true); !slices.Equal(renewed.Reg, want) {
		t.Fatal("the file replaced by rename loads other streams")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(first.Reg, want) {
		t.Fatal("replacing and unlinking the file changed the old mapped stream")
	}

	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	faulted := func() (faulted bool) {
		defer func() { faulted = recover() != nil }()
		first.Reg[0] ^= 1
		return false
	}()
	if !faulted {
		t.Fatal("a write into a mapped stream did not fault")
	}

	if _, err := SetTraceCacheDir(""); err != nil {
		t.Fatal(err)
	}
	ClearTraceCache()
	if _, err := Resident("li", diskTestCfg); err != nil {
		t.Fatal(err)
	}
	if s := Stats(); s.ResidentBytes == 0 || s.MappedBytes != 0 {
		t.Fatalf("disk layer off: %d of %d resident bytes mapped, want none", s.MappedBytes, s.ResidentBytes)
	}
}
