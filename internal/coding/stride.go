package coding

import (
	"fmt"

	"buspower/internal/bus"
)

// StrideTranscoder implements the strided predictor of §4.3 (Figure 11):
// a shift register of previous bus values feeds a bank of stride
// predictors — stride over every data-word, every other data-word, every
// third, and so on. Lower-order strides are assumed more probable (higher
// confidence) and receive lower-weight codes; the lowest interval whose
// prediction matches the input is sent. LAST-value prediction is folded in
// as code 0, per the paper.
//
// Stride k predicts  h[k-1] + (h[k-1] − h[2k-1])  where h[0] is the most
// recent value, i.e. it extrapolates the difference between the last two
// values observed at interval k.
type StrideTranscoder struct {
	width   int
	strides int
	lambda  float64
	cb      *Codebook
	name    string
}

// NewStride builds a stride transcoder with predictors for intervals
// 1..strides; lambda is the assumed Λ used to order codewords and choose
// raw-vs-inverted fallbacks.
func NewStride(width, strides int, lambda float64) (*StrideTranscoder, error) {
	checkWidth(width)
	if strides < 1 {
		return nil, fmt.Errorf("coding: stride count %d < 1", strides)
	}
	cb, err := NewCodebook(width, 1+strides, lambda)
	if err != nil {
		return nil, err
	}
	return &StrideTranscoder{
		width:   width,
		strides: strides,
		lambda:  lambda,
		cb:      cb,
		name:    fmt.Sprintf("stride-%d", strides),
	}, nil
}

// Name implements Transcoder.
func (t *StrideTranscoder) Name() string { return t.name }

// ConfigKey implements ConfigKeyer: the name omits the width and the
// assumed Λ.
func (t *StrideTranscoder) ConfigKey() string {
	return fmt.Sprintf("%s/w%d/l%g", t.name, t.width, t.lambda)
}

// DataWidth implements Transcoder.
func (t *StrideTranscoder) DataWidth() int { return t.width }

// NewEncoder implements Transcoder.
func (t *StrideTranscoder) NewEncoder() Encoder {
	return &strideEncoder{t: t, hist: newStrideHistory(t.strides), ch: newChannel(t.width, t.lambda)}
}

// NewDecoder implements Transcoder.
func (t *StrideTranscoder) NewDecoder() Decoder {
	return &strideDecoder{t: t, hist: newStrideHistory(t.strides), ch: newDecodeChannel(t.width)}
}

// strideHistory is a ring of the last 2·K values; index 0 is most recent.
type strideHistory struct {
	vals []uint64
	pos  int
}

func newStrideHistory(strides int) strideHistory {
	return strideHistory{vals: make([]uint64, 2*strides)}
}

func (h *strideHistory) push(v uint64) {
	h.vals[h.pos] = v
	h.pos++
	if h.pos == len(h.vals) {
		h.pos = 0
	}
}

// at returns the i-th most recent value (0-based).
func (h *strideHistory) at(i int) uint64 {
	idx := h.pos - 1 - i
	for idx < 0 {
		idx += len(h.vals)
	}
	return h.vals[idx]
}

// predict returns the stride-k prediction (wrapping arithmetic, masked).
func (h *strideHistory) predict(k, width int) uint64 {
	a := h.at(k - 1)
	b := h.at(2*k - 1)
	return (a + (a - b)) & uint64(bus.Mask(width))
}

func (h *strideHistory) reset() {
	for i := range h.vals {
		h.vals[i] = 0
	}
	h.pos = 0
}

type strideEncoder struct {
	t    *StrideTranscoder
	hist strideHistory
	ch   channel
	ops  OpStats
}

func (e *strideEncoder) Encode(v uint64) bus.Word {
	t := e.t
	v &= uint64(e.ch.dataMask)
	e.ops.Cycles++
	var out bus.Word
	switch {
	case v == e.hist.at(0):
		e.ops.LastHits++
		out = e.ch.sendCode(0)
	default:
		matched := -1
		for k := 1; k <= t.strides; k++ {
			e.ops.PartialMatches++
			if e.hist.predict(k, t.width) == v {
				matched = k
				break
			}
		}
		if matched > 0 {
			e.ops.CodeSends++
			out = e.ch.sendCode(t.cb.Code(matched))
		} else {
			e.ops.RawSends++
			out, _ = e.ch.sendRaw(v)
		}
	}
	e.hist.push(v)
	return out
}

func (e *strideEncoder) BusWidth() int { return e.ch.busWidth() }
func (e *strideEncoder) Reset() {
	e.hist.reset()
	e.ch.reset()
	e.ops = OpStats{}
}
func (e *strideEncoder) Ops() OpStats { return e.ops }

type strideDecoder struct {
	t    *StrideTranscoder
	hist strideHistory
	ch   decodeChannel
}

func (d *strideDecoder) Decode(w bus.Word) uint64 {
	t := d.t
	mode, payload := d.ch.observe(w)
	var v uint64
	switch mode {
	case modeCode:
		idx, ok := t.cb.Index(payload)
		if !ok {
			panic(fmt.Sprintf("coding: stride decoder received non-codeword transition %#x", payload))
		}
		if idx == 0 {
			v = d.hist.at(0)
		} else {
			v = d.hist.predict(idx, t.width)
		}
	default:
		v = uint64(payload)
	}
	d.hist.push(v)
	return v
}

func (d *strideDecoder) Reset() {
	d.hist.reset()
	d.ch.reset()
}
