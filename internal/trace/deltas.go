package trace

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Deltas is a stream of 32-bit values held packed: each value is the
// zigzag varint (binary.AppendVarint) of its 32-bit difference from the
// previous value, the first taken against 0. A stream whose neighbouring
// values lie close together, such as a memory address bus, packs to a
// byte or two per value; no value takes more than 5 bytes. The encoding
// of a stream is unique: the decoder rejects every other byte string,
// including a varint padded with redundant continuation bytes.
type Deltas struct {
	// Len is the number of values.
	Len int
	// Data is the packed bytes.
	Data []byte
}

// maxDeltaBytes is the longest varint a 32-bit difference takes.
const maxDeltaBytes = 5

// zigzag maps the 32-bit difference d, read as signed, to the unsigned
// value binary.AppendVarint writes for it.
func zigzag(d uint32) uint32 { return d<<1 ^ uint32(int32(d)>>31) }

// PackDeltas packs vals into a Deltas whose Data is exactly as large as
// the encoding (cap == len).
func PackDeltas(vals []uint32) Deltas {
	size, prev := 0, uint32(0)
	for _, v := range vals {
		size += (bits.Len32(zigzag(v-prev)|1) + 6) / 7
		prev = v
	}
	data := make([]byte, 0, size)
	prev = 0
	for _, v := range vals {
		data = binary.AppendVarint(data, int64(int32(v-prev)))
		prev = v
	}
	return Deltas{Len: len(vals), Data: data}
}

// Decode writes the stream's values into dst, which must hold exactly
// d.Len values. It fails, leaving dst partly written, when Data is not
// the encoding of d.Len values.
func (d Deltas) Decode(dst []uint32) error {
	if len(dst) != d.Len {
		return fmt.Errorf("trace: decoding %d packed values into %d", d.Len, len(dst))
	}
	return walkDeltas(d.Data, d.Len, dst)
}

// walkDeltas decodes n values from src into dst, or only checks src when
// dst is nil. src must hold exactly n canonical varints, each of a value
// that fits 32 bits.
func walkDeltas(src []byte, n int, dst []uint32) error {
	var prev uint32
	i := 0
	for k := 0; k < n; k++ {
		var u uint32
		if i < len(src) && src[i] < 0x80 { // the common one-byte case
			u = uint32(src[i])
			i++
		} else {
			for j := 0; ; j++ {
				if i == len(src) {
					if j == 0 {
						return fmt.Errorf("trace: packed stream ends after %d of %d values", k, n)
					}
					return fmt.Errorf("trace: packed value %d is cut off", k)
				}
				b := src[i]
				i++
				if j == maxDeltaBytes-1 && b > 0x0F {
					return fmt.Errorf("trace: packed value %d is longer than %d bytes or exceeds 32 bits", k, maxDeltaBytes)
				}
				u |= uint32(b&0x7F) << (7 * j)
				if b < 0x80 {
					if b == 0 && j > 0 {
						return fmt.Errorf("trace: packed value %d has a redundant trailing byte", k)
					}
					break
				}
			}
		}
		prev += u>>1 ^ -(u & 1) // undo the zigzag and add the difference
		if dst != nil {
			dst[k] = prev
		}
	}
	if i != len(src) {
		return fmt.Errorf("trace: %d bytes follow the %d packed values", len(src)-i, n)
	}
	return nil
}
