//go:build unix

package trace

import (
	"os"
	"syscall"
	"unsafe"
)

// This file holds the container reader's only uses of syscall and unsafe.

// mapFile maps the first size bytes of f read-only and shared.
func mapFile(f *os.File, size int) ([]byte, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, &os.PathError{Op: "mmap", Path: f.Name(), Err: err}
	}
	return data, nil
}

// unmapFile releases a mapping made by mapFile.
func unmapFile(data []byte) { syscall.Munmap(data) }

// uint32View reinterprets b as little-endian uint32 values in place. It
// returns nil when it cannot: on a big-endian host, or when b does not
// start at a 4-byte-aligned address or is not a whole number of values.
func uint32View(b []byte) []uint32 {
	if !littleEndian || len(b) == 0 || len(b)%4 != 0 || uintptr(unsafe.Pointer(&b[0]))%4 != 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}
