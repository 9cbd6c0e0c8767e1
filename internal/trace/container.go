package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
)

// BUSTRC03 is the bulk-I/O container format behind the persistent trace
// cache: one file holds every bus stream of a workload run plus an opaque
// metadata blob (the run's summary statistics), so a cache hit restores a
// whole run in a few large reads instead of one file (and one per-value
// loop) per bus. Every bus of the simulated machine is 32 bits wide, so
// a value takes 4 bytes on disk and in memory.
//
// Layout (all integers little-endian):
//
//	magic[8] "BUSTRC03"
//	nameLen u16 | name bytes
//	metaLen u32 | meta bytes (opaque to this package)
//	sectionCount u16
//	per section: nameLen u16 | name | width u16 (1..32) | count u64
//	per section: count * 4 bytes of values (32 KiB block-encoded)
//	checksum u64 (FNV-1a over everything after the magic)
//
// The trailing checksum makes torn or bit-rotted cache files detectable:
// readers verify it before trusting the payload, and the cache layer
// falls back to re-simulation on any error.

// containerMagic identifies the container format and its version; bumping
// the version changes the magic, so stale files fail the magic check.
var containerMagic = [8]byte{'B', 'U', 'S', 'T', 'R', 'C', '0', '3'}

// ContainerVersion names the on-disk format for cache-key derivation:
// changing the layout must change this string (and the magic), which
// invalidates every previously written cache entry.
const ContainerVersion = "BUSTRC03"

// Limits keep a corrupted header from driving huge allocations.
const (
	maxContainerSections = 64
	maxContainerMeta     = 1 << 20
	maxContainerValues   = 1 << 30
)

// Section is one bus stream inside a Container.
type Section struct {
	// Name identifies the bus, e.g. "reg".
	Name string
	// Width is the bus width in bits (1..32).
	Width int
	// Values is the per-beat value stream.
	Values []uint32
}

// Container is a named bundle of bus streams with an opaque metadata blob.
type Container struct {
	// Name identifies the source, e.g. the workload name.
	Name string
	// Meta is carried verbatim; the cache layer stores the run summary
	// here as JSON.
	Meta []byte
	// Sections are the bus streams in file order.
	Sections []Section
}

// blockWords is the bulk-I/O chunk size in values: one Write or ReadFull
// call per 8192 values (32 KiB of container beats, 64 KiB of BUSTRC01
// trace values) instead of one call per value.
const blockWords = 8192

// maxSectionWidth is the widest bus a container section holds.
const maxSectionWidth = 32

// writeUint64Block encodes vals in blockWords chunks through buf (which
// must hold blockWords*8 bytes).
func writeUint64Block(w io.Writer, vals []uint64, buf []byte) error {
	for len(vals) > 0 {
		n := len(vals)
		if n > blockWords {
			n = blockWords
		}
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(buf[i*8:], v)
		}
		if _, err := w.Write(buf[:n*8]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// readUint64Block decodes len(vals) values in blockWords chunks through
// buf (which must hold blockWords*8 bytes).
func readUint64Block(r io.Reader, vals []uint64, buf []byte) error {
	for len(vals) > 0 {
		n := len(vals)
		if n > blockWords {
			n = blockWords
		}
		if _, err := io.ReadFull(r, buf[:n*8]); err != nil {
			return err
		}
		for i := range vals[:n] {
			vals[i] = binary.LittleEndian.Uint64(buf[i*8:])
		}
		vals = vals[n:]
	}
	return nil
}

// writeUint32Block is writeUint64Block for 4-byte values (buf must hold
// blockWords*4 bytes).
func writeUint32Block(w io.Writer, vals []uint32, buf []byte) error {
	for len(vals) > 0 {
		n := min(len(vals), blockWords)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint32(buf[i*4:], v)
		}
		if _, err := w.Write(buf[:n*4]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// readUint32Block is readUint64Block for 4-byte values (buf must hold
// blockWords*4 bytes).
func readUint32Block(r io.Reader, vals []uint32, buf []byte) error {
	for len(vals) > 0 {
		n := min(len(vals), blockWords)
		if _, err := io.ReadFull(r, buf[:n*4]); err != nil {
			return err
		}
		for i := range vals[:n] {
			vals[i] = binary.LittleEndian.Uint32(buf[i*4:])
		}
		vals = vals[n:]
	}
	return nil
}

// Write serializes the container with its trailing checksum.
func (c *Container) Write(w io.Writer) error {
	if len(c.Name) > 0xFFFF {
		return errors.New("trace: container name too long")
	}
	if len(c.Meta) > maxContainerMeta {
		return fmt.Errorf("trace: container meta of %d bytes exceeds limit", len(c.Meta))
	}
	if len(c.Sections) > maxContainerSections {
		return fmt.Errorf("trace: %d sections exceed limit %d", len(c.Sections), maxContainerSections)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(containerMagic[:]); err != nil {
		return err
	}
	sum := fnv.New64a()
	hw := io.MultiWriter(bw, sum) // checksum covers everything after the magic

	var u16 [2]byte
	var u32 [4]byte
	var u64 [8]byte
	putString := func(s string) error {
		binary.LittleEndian.PutUint16(u16[:], uint16(len(s)))
		if _, err := hw.Write(u16[:]); err != nil {
			return err
		}
		_, err := io.WriteString(hw, s)
		return err
	}
	if err := putString(c.Name); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(u32[:], uint32(len(c.Meta)))
	if _, err := hw.Write(u32[:]); err != nil {
		return err
	}
	if _, err := hw.Write(c.Meta); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(u16[:], uint16(len(c.Sections)))
	if _, err := hw.Write(u16[:]); err != nil {
		return err
	}
	for _, s := range c.Sections {
		if len(s.Name) > 0xFFFF {
			return errors.New("trace: section name too long")
		}
		if s.Width < 1 || s.Width > maxSectionWidth {
			return fmt.Errorf("trace: section %s: invalid width %d", s.Name, s.Width)
		}
		if len(s.Values) > maxContainerValues {
			return fmt.Errorf("trace: section %s: %d values exceed limit", s.Name, len(s.Values))
		}
		if err := putString(s.Name); err != nil {
			return err
		}
		binary.LittleEndian.PutUint16(u16[:], uint16(s.Width))
		if _, err := hw.Write(u16[:]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(u64[:], uint64(len(s.Values)))
		if _, err := hw.Write(u64[:]); err != nil {
			return err
		}
	}
	buf := make([]byte, blockWords*4)
	for _, s := range c.Sections {
		if err := writeUint32Block(hw, s.Values, buf); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(u64[:], sum.Sum64())
	if _, err := bw.Write(u64[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// ErrContainerFormat wraps every structural decode failure: bad magic,
// implausible header fields, truncation, checksum mismatch. Callers
// (the disk cache) treat any such error as "re-simulate".
var ErrContainerFormat = errors.New("trace: bad container")

func containerErrf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrContainerFormat, fmt.Sprintf(format, args...))
}

// checksumReader hashes everything read through it so the decoder can
// verify the trailing checksum without buffering the file.
type checksumReader struct {
	r   io.Reader
	sum hash.Hash64
}

func (cr *checksumReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.sum.Write(p[:n])
	}
	return n, err
}

// ReadContainer deserializes a container of size bytes written by Write,
// verifying the checksum. Any structural problem — wrong magic (e.g. a
// stale-version file), truncation, corruption — yields an error wrapping
// ErrContainerFormat and never a panic. The section headers' value counts
// are checked against size before any values are read, so each section
// is allocated once at its exact length (decoded traces stay resident
// for the life of the process) and a corrupt header announcing an absurd
// count allocates nothing.
func ReadContainer(r io.Reader, size int64) (*Container, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, containerErrf("reading magic: %v", err)
	}
	if m != containerMagic {
		return nil, containerErrf("magic %q is not %q (stale or foreign file)", m[:], containerMagic[:])
	}
	cr := &checksumReader{r: br, sum: fnv.New64a()}

	var u16 [2]byte
	var u32 [4]byte
	var u64 [8]byte
	readString := func(what string, limit int) (string, error) {
		if _, err := io.ReadFull(cr, u16[:]); err != nil {
			return "", containerErrf("%s length: %v", what, err)
		}
		n := int(binary.LittleEndian.Uint16(u16[:]))
		if n > limit {
			return "", containerErrf("%s length %d exceeds limit %d", what, n, limit)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(cr, b); err != nil {
			return "", containerErrf("%s: %v", what, err)
		}
		return string(b), nil
	}
	c := &Container{}
	var err error
	if c.Name, err = readString("container name", 0xFFFF); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(cr, u32[:]); err != nil {
		return nil, containerErrf("meta length: %v", err)
	}
	metaLen := binary.LittleEndian.Uint32(u32[:])
	if metaLen > maxContainerMeta {
		return nil, containerErrf("meta of %d bytes exceeds limit", metaLen)
	}
	c.Meta = make([]byte, metaLen)
	if _, err := io.ReadFull(cr, c.Meta); err != nil {
		return nil, containerErrf("meta: %v", err)
	}
	if _, err := io.ReadFull(cr, u16[:]); err != nil {
		return nil, containerErrf("section count: %v", err)
	}
	nSections := int(binary.LittleEndian.Uint16(u16[:]))
	if nSections > maxContainerSections {
		return nil, containerErrf("%d sections exceed limit %d", nSections, maxContainerSections)
	}
	c.Sections = make([]Section, nSections)
	counts := make([]uint64, nSections)
	var total uint64
	for i := range c.Sections {
		s := &c.Sections[i]
		if s.Name, err = readString("section name", 0xFFFF); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(cr, u16[:]); err != nil {
			return nil, containerErrf("section %s width: %v", s.Name, err)
		}
		s.Width = int(binary.LittleEndian.Uint16(u16[:]))
		if s.Width < 1 || s.Width > maxSectionWidth {
			return nil, containerErrf("section %s: invalid width %d", s.Name, s.Width)
		}
		if _, err := io.ReadFull(cr, u64[:]); err != nil {
			return nil, containerErrf("section %s count: %v", s.Name, err)
		}
		counts[i] = binary.LittleEndian.Uint64(u64[:])
		if counts[i] > maxContainerValues || total+counts[i] > maxContainerValues {
			return nil, containerErrf("section %s: implausible value count %d", s.Name, counts[i])
		}
		total += counts[i]
	}
	if 4*total > uint64(max(size, 0)) {
		return nil, containerErrf("%d values overrun the %d-byte container", total, size)
	}
	buf := make([]byte, blockWords*4)
	for i := range c.Sections {
		vals := make([]uint32, counts[i])
		if err := readUint32Block(cr, vals, buf); err != nil {
			return nil, containerErrf("section %s values: %v", c.Sections[i].Name, err)
		}
		c.Sections[i].Values = vals
	}
	want := cr.sum.Sum64()
	if _, err := io.ReadFull(br, u64[:]); err != nil {
		return nil, containerErrf("checksum: %v", err)
	}
	if got := binary.LittleEndian.Uint64(u64[:]); got != want {
		return nil, containerErrf("checksum mismatch: file %#x, computed %#x", got, want)
	}
	return c, nil
}

// SectionByName returns the named section.
func (c *Container) SectionByName(name string) (*Section, bool) {
	for i := range c.Sections {
		if c.Sections[i].Name == name {
			return &c.Sections[i], true
		}
	}
	return nil, false
}
