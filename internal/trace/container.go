package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
)

// BUSTRC05 is the bulk-I/O container format behind the persistent trace
// cache: one file holds every bus stream of a workload run plus an opaque
// metadata blob (the run's summary statistics), so a cache hit restores a
// whole run from one file. A section is either plain or packed. A plain
// section holds 4 bytes per value (every bus of the simulated machine is
// 32 bits wide); a packed section holds its values delta-coded (Deltas).
// Every section starts at a 4-byte-aligned file offset, so a reader can
// map the file and use plain sections in place as []uint32 and packed
// ones as bytes.
//
// Layout (all integers little-endian):
//
//	magic[8] "BUSTRC05"
//	nameLen u16 | name bytes
//	metaLen u32 | meta bytes (opaque to this package)
//	sectionCount u16
//	per section: nameLen u16 | name | width u16 (1..32) | coding u16
//	             | count u64 | size u64
//	zero bytes up to the next 4-byte-aligned file offset
//	per section: size bytes of values, then zero bytes up to the next
//	             4-byte-aligned file offset
//	checksum u64 (FNV-1a over everything after the magic, padding included)
//
// coding is 0 for a plain section (size = 4 * count) and 1 for a packed
// one (count <= size <= 5 * count). The trailing checksum makes torn or
// bit-rotted cache files detectable: the parser verifies it, and walks
// every packed section once, before any section is used, and the cache
// layer falls back to re-simulation on any error.

// containerMagic identifies the container format and its version; bumping
// the version changes the magic, so stale files fail the magic check.
var containerMagic = [8]byte{'B', 'U', 'S', 'T', 'R', 'C', '0', '5'}

// ContainerVersion names the on-disk format for cache-key derivation:
// changing the layout must change this string (and the magic), which
// invalidates every previously written cache entry.
const ContainerVersion = "BUSTRC05"

// Section codings.
const (
	codingPlain  = 0
	codingDeltas = 1
)

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
	// Values is the per-beat value stream of a plain section.
	Values []uint32
	// Packed, when non-nil, makes the section a packed one: its stream
	// is held delta-coded, and Values is nil.
	Packed *Deltas
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

// blockWords is the bulk-I/O chunk size in values: one Write call per
// 8192 values (32 KiB of container beats) instead of one call per value.
const blockWords = 8192

// maxSectionWidth is the widest bus a container section holds.
const maxSectionWidth = 32

// writeUint32Block encodes vals in blockWords chunks through buf (which
// must hold blockWords*4 bytes).
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

// Write serializes the container with its padding and trailing checksum.
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
	le := binary.LittleEndian
	hdr := append([]byte(nil), containerMagic[:]...)
	hdr = append(le.AppendUint16(hdr, uint16(len(c.Name))), c.Name...)
	hdr = append(le.AppendUint32(hdr, uint32(len(c.Meta))), c.Meta...)
	hdr = le.AppendUint16(hdr, uint16(len(c.Sections)))
	total := 0
	for _, s := range c.Sections {
		if len(s.Name) > 0xFFFF {
			return errors.New("trace: section name too long")
		}
		if s.Width < 1 || s.Width > maxSectionWidth {
			return fmt.Errorf("trace: section %s: invalid width %d", s.Name, s.Width)
		}
		coding, n, size := codingPlain, len(s.Values), 4*len(s.Values)
		if s.Packed != nil {
			if s.Values != nil {
				return fmt.Errorf("trace: section %s holds both plain and packed values", s.Name)
			}
			if err := walkDeltas[uint32](s.Packed.Data, s.Packed.Len, nil); err != nil {
				return fmt.Errorf("trace: section %s: %w", s.Name, err)
			}
			coding, n, size = codingDeltas, s.Packed.Len, len(s.Packed.Data)
		}
		if total += n; n > maxContainerValues || total > maxContainerValues {
			return fmt.Errorf("trace: section %s: %d values exceed limit", s.Name, n)
		}
		hdr = append(le.AppendUint16(hdr, uint16(len(s.Name))), s.Name...)
		hdr = le.AppendUint16(hdr, uint16(s.Width))
		hdr = le.AppendUint16(hdr, uint16(coding))
		hdr = le.AppendUint64(hdr, uint64(n))
		hdr = le.AppendUint64(hdr, uint64(size))
	}
	hdr = append(hdr, make([]byte, valuesPadding(len(hdr)))...)

	sum := fnv.New64a() // covers everything after the magic
	sum.Write(hdr[len(containerMagic):])
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	hw := io.MultiWriter(bw, sum)
	buf := make([]byte, blockWords*4)
	var zeros [3]byte
	for _, s := range c.Sections {
		if s.Packed == nil {
			if err := writeUint32Block(hw, s.Values, buf); err != nil {
				return err
			}
			continue
		}
		if _, err := hw.Write(s.Packed.Data); err != nil {
			return err
		}
		if _, err := hw.Write(zeros[:valuesPadding(len(s.Packed.Data))]); err != nil {
			return err
		}
	}
	if _, err := bw.Write(le.AppendUint64(nil, sum.Sum64())); err != nil {
		return err
	}
	return bw.Flush()
}

// valuesPadding is the number of zero bytes that take n bytes (of header,
// or of a section's values) to the next 4-byte-aligned offset, where the
// next section's values start.
func valuesPadding(n int) int { return -n & 3 }

// ErrContainerFormat wraps every structural decode failure: bad magic,
// implausible header fields, truncation, bad padding, checksum mismatch,
// a malformed packed section.
// Callers (the disk cache) treat any such error as "re-simulate".
var ErrContainerFormat = errors.New("trace: bad container")

func containerErrf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrContainerFormat, fmt.Sprintf(format, args...))
}

// littleEndian reports whether the host stores a uint32 in the
// container's byte order, so that a section can be used in place.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// minContainerSize is the smallest well-formed container: the magic, an
// empty name and meta, no sections and the checksum.
const minContainerSize = 8 + 2 + 4 + 2 + 8

// cursor reads the container header out of a byte slice.
type cursor struct {
	data []byte
	off  int
}

// take returns the next n bytes, or a format error naming what was cut
// off when fewer than n remain.
func (c *cursor) take(n int, what string) ([]byte, error) {
	if n > len(c.data)-c.off {
		return nil, containerErrf("%s at byte %d runs past the %d-byte container", what, c.off, len(c.data))
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *cursor) uint16(what string) (int, error) {
	b, err := c.take(2, what)
	if err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint16(b)), nil
}

func (c *cursor) string(what string) (string, error) {
	n, err := c.uint16(what + " length")
	if err != nil {
		return "", err
	}
	b, err := c.take(n, what)
	return string(b), err
}

// ParseContainer decodes a container written by Write. Any structural
// problem (wrong magic, e.g. a stale-version file; a header that overruns
// the data; a size that disagrees with the header; non-zero padding; a
// checksum mismatch; a packed section that is not the exact encoding of
// its values) yields an error wrapping ErrContainerFormat and never a
// panic. The checksum is verified, and every packed section decoded once,
// before any section is built.
//
// Sections are zero-copy views into data when the host is little-endian
// and data starts at a 4-byte-aligned address: data must then stay alive
// and unmodified for as long as the sections are used. Otherwise each
// section is decoded (a plain one) or copied (a packed one) into its own
// exact-size slice. Name and Meta are always copies.
func ParseContainer(data []byte) (*Container, error) {
	c, _, err := parseContainer(data)
	return c, err
}

// parseContainer is ParseContainer; viewed reports whether any section
// points into data.
func parseContainer(data []byte) (c *Container, viewed bool, err error) {
	if len(data) < len(containerMagic) {
		return nil, false, containerErrf("%d bytes hold no magic", len(data))
	}
	if m := [8]byte(data); m != containerMagic {
		return nil, false, containerErrf("magic %q is not %q (stale or foreign file)", m[:], containerMagic[:])
	}
	cur := &cursor{data: data, off: len(containerMagic)}
	c = &Container{}
	if c.Name, err = cur.string("container name"); err != nil {
		return nil, false, err
	}
	b, err := cur.take(4, "meta length")
	if err != nil {
		return nil, false, err
	}
	metaLen := binary.LittleEndian.Uint32(b)
	if metaLen > maxContainerMeta {
		return nil, false, containerErrf("meta of %d bytes exceeds limit", metaLen)
	}
	if b, err = cur.take(int(metaLen), "meta"); err != nil {
		return nil, false, err
	}
	c.Meta = append([]byte{}, b...)
	nSections, err := cur.uint16("section count")
	if err != nil {
		return nil, false, err
	}
	if nSections > maxContainerSections {
		return nil, false, containerErrf("%d sections exceed limit %d", nSections, maxContainerSections)
	}
	c.Sections = make([]Section, nSections)
	// layout is where a section's values lie in data, and how they are coded.
	type layout struct{ coding, n, off, size int }
	lay := make([]layout, nSections)
	var total, dataSize uint64
	for i := range c.Sections {
		s := &c.Sections[i]
		if s.Name, err = cur.string("section name"); err != nil {
			return nil, false, err
		}
		if s.Width, err = cur.uint16("section " + s.Name + " width"); err != nil {
			return nil, false, err
		}
		if s.Width < 1 || s.Width > maxSectionWidth {
			return nil, false, containerErrf("section %s: invalid width %d", s.Name, s.Width)
		}
		if lay[i].coding, err = cur.uint16("section " + s.Name + " coding"); err != nil {
			return nil, false, err
		}
		if b, err = cur.take(16, "section "+s.Name+" count and size"); err != nil {
			return nil, false, err
		}
		n, size := binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
		if n > maxContainerValues || total+n > maxContainerValues {
			return nil, false, containerErrf("section %s: implausible value count %d", s.Name, n)
		}
		switch lay[i].coding {
		case codingPlain:
			if size != 4*n {
				return nil, false, containerErrf("section %s: %d bytes hold no %d plain values", s.Name, size, n)
			}
		case codingDeltas:
			if size < n || size > maxDeltaBytes*n {
				return nil, false, containerErrf("section %s: %d bytes hold no %d packed values", s.Name, size, n)
			}
		default:
			return nil, false, containerErrf("section %s: unknown coding %d", s.Name, lay[i].coding)
		}
		lay[i].n, lay[i].size = int(n), int(size)
		total += n
		dataSize += size + uint64(valuesPadding(int(size)))
	}
	if b, err = cur.take(valuesPadding(cur.off), "padding"); err != nil {
		return nil, false, err
	}
	if err := checkZero(b, "before the values"); err != nil {
		return nil, false, err
	}
	start := cur.off
	if want := uint64(start) + dataSize + 8; want != uint64(len(data)) {
		return nil, false, containerErrf("header announces %d bytes, container holds %d", want, len(data))
	}
	end := len(data) - 8
	sum := fnv.New64a()
	sum.Write(data[len(containerMagic):end])
	if got, want := binary.LittleEndian.Uint64(data[end:]), sum.Sum64(); got != want {
		return nil, false, containerErrf("checksum mismatch: file %#x, computed %#x", got, want)
	}

	// Check every section's padding and packed values before building any.
	for i, off := 0, start; i < len(lay); i++ {
		l := &lay[i]
		l.off = off
		off += l.size
		if l.coding == codingDeltas {
			if err := walkDeltas[uint32](data[l.off:off], l.n, nil); err != nil {
				return nil, false, containerErrf("section %s: %v", c.Sections[i].Name, err)
			}
		}
		if err := checkZero(data[off:off+valuesPadding(l.size)], "after section "+c.Sections[i].Name); err != nil {
			return nil, false, err
		}
		off += valuesPadding(l.size)
	}
	// Sections view data when plain values can be read in place there
	// (a little-endian host and data 4-byte aligned, hence every section
	// start), so that a container is either all views or all copies.
	inPlace := uint32View(data[:4]) != nil
	for i, l := range lay {
		raw := data[l.off : l.off+l.size : l.off+l.size]
		viewed = viewed || (inPlace && l.n > 0)
		switch {
		case l.coding == codingDeltas && inPlace:
			c.Sections[i].Packed = &Deltas{Len: l.n, Data: raw}
		case l.coding == codingDeltas:
			packed := make([]byte, len(raw))
			copy(packed, raw)
			c.Sections[i].Packed = &Deltas{Len: l.n, Data: packed}
		case inPlace && l.n > 0:
			c.Sections[i].Values = uint32View(raw)
		default:
			vals := make([]uint32, l.n)
			for j := range vals {
				vals[j] = binary.LittleEndian.Uint32(raw[4*j:])
			}
			c.Sections[i].Values = vals
		}
	}
	return c, viewed, nil
}

// checkZero fails unless every padding byte in b is zero.
func checkZero(b []byte, where string) error {
	for _, p := range b {
		if p != 0 {
			return containerErrf("non-zero padding byte %#x %s", p, where)
		}
	}
	return nil
}

// MapContainer parses the container file f of size bytes. Where it can,
// it maps the file read-only and returns sections that view the mapping
// (mapped is true): the mapping is never unmapped, so the sections stay
// valid for the life of the process, a write through them faults, and
// unlinking or renaming over the file does not change them. The file must
// only ever be replaced by rename: a write into it in place changes
// sections already handed out, and truncating it makes reading the lost
// pages fault. Where the platform or the file's filesystem cannot map,
// the first size bytes of f are read from its current offset instead.
// Then, or when the sections cannot view the bytes in place (a
// big-endian host), the sections are heap copies and nothing stays
// mapped. Errors are those of ParseContainer, or of reading f.
func MapContainer(f *os.File, size int64) (c *Container, mapped bool, err error) {
	if size < minContainerSize || int64(int(size)) != size {
		return nil, false, containerErrf("%d-byte file is no container", size)
	}
	data, err := mapFile(f, int(size))
	if err != nil {
		data = make([]byte, size)
		if _, err := io.ReadFull(f, data); err != nil {
			return nil, false, err
		}
		c, _, err := parseContainer(data)
		return c, false, err
	}
	c, viewed, err := parseContainer(data)
	if !viewed {
		unmapFile(data) // nothing points into the mapping
	}
	return c, viewed, err
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
