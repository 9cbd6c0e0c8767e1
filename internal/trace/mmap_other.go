//go:build !unix

package trace

import (
	"errors"
	"os"
)

// mapFile always fails: this build has no file mapping, so MapContainer
// reads the file and sections are heap copies.
func mapFile(*os.File, int) ([]byte, error) { return nil, errors.ErrUnsupported }

func unmapFile([]byte) {}

func uint32View([]byte) []uint32 { return nil }
